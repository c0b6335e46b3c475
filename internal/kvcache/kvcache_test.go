package kvcache

import "testing"

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func checkLedger(t *testing.T, c *Cache) {
	t.Helper()
	s := c.Stats()
	if s.Lookups != s.Hits+s.Restored+s.Misses+s.Unallocated {
		t.Fatalf("ledger: lookups %d != hits %d + restored %d + misses %d + unallocated %d",
			s.Lookups, s.Hits, s.Restored, s.Misses, s.Unallocated)
	}
	if s.Evictions > s.Misses+s.Restored {
		t.Fatalf("ledger: evictions %d > placements (misses %d + restored %d)", s.Evictions, s.Misses, s.Restored)
	}
	if s.Spills > s.Evictions {
		t.Fatalf("ledger: spills %d > evictions %d", s.Spills, s.Evictions)
	}
	if s.HostEvictions > s.Spills {
		t.Fatalf("ledger: host evictions %d > spills %d", s.HostEvictions, s.Spills)
	}
}

func TestNewValidates(t *testing.T) {
	cases := []Config{
		{BlockTokens: -1, DeviceBlocks: 4},
		{DeviceBlocks: 0},
		{DeviceBlocks: -2},
		{DeviceBlocks: 4, HostSpillBlocks: -1},
		{DeviceBlocks: 4, Policy: Policy(9)},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v): want error, got nil", cfg)
		}
	}
	c := mustNew(t, Config{DeviceBlocks: 4})
	if c.BlockTokens() != 32 {
		t.Errorf("default block tokens: got %d, want 32", c.BlockTokens())
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range Policies() {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.String() != name {
			t.Errorf("round-trip %q: got %q", name, p.String())
		}
	}
	if _, err := ParsePolicy("mru"); err == nil {
		t.Error("ParsePolicy(mru): want error")
	}
}

// A second acquire of the same prefix hits every block the first one
// created, and the contiguous credit covers them.
func TestRepeatAcquireHits(t *testing.T) {
	c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 32})
	g1 := c.Acquire(7, 100, false)
	// 100 tokens → (100-1)/16 = 6 blocks, all misses.
	if g1.Pinned != 6 || g1.Misses != 6 || g1.Hits != 0 || g1.CreditTokens != 0 {
		t.Fatalf("first acquire: %+v", g1)
	}
	c.Release(7, g1.Pinned)
	g2 := c.Acquire(7, 132, false)
	// 132 tokens → 8 blocks: 6 hits + 2 misses, credit 6*16.
	if g2.Pinned != 8 || g2.Hits != 6 || g2.Misses != 2 {
		t.Fatalf("second acquire: %+v", g2)
	}
	if g2.CreditTokens != 96 {
		t.Fatalf("credit: got %d, want 96", g2.CreditTokens)
	}
	checkLedger(t, c)
}

// Sessions do not share blocks: the chain hash keys on session.
func TestSessionsIsolated(t *testing.T) {
	c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 32})
	g := c.Acquire(1, 100, false)
	c.Release(1, g.Pinned)
	g2 := c.Acquire(2, 100, false)
	if g2.Hits != 0 || g2.Misses != 6 {
		t.Fatalf("session 2 saw session 1's blocks: %+v", g2)
	}
	checkLedger(t, c)
}

// Sessionless requests and single-token prompts bypass the cache, and
// the final prompt token is never covered by a block.
func TestNoCacheCases(t *testing.T) {
	c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 32})
	if g := c.Acquire(0, 100, false); g.Pinned != 0 {
		t.Errorf("sessionless acquire pinned %d blocks", g.Pinned)
	}
	if g := c.Acquire(3, 1, false); g.Pinned != 0 {
		t.Errorf("one-token acquire pinned %d blocks", g.Pinned)
	}
	// Exactly one block of tokens: the final token keeps it at 0 blocks.
	if g := c.Acquire(3, 16, false); g.Pinned != 0 {
		t.Errorf("16-token acquire with 16-token blocks pinned %d blocks", g.Pinned)
	}
	// One past: (17-1)/16 = 1 block.
	if g := c.Acquire(3, 17, false); g.Pinned != 1 {
		t.Errorf("17-token acquire pinned %d blocks, want 1", g.Pinned)
	}
	checkLedger(t, c)
}

// Pinned blocks never evict: with every device block pinned, a new
// acquire reports unallocated blocks instead of evicting.
func TestPinnedBlocksDoNotEvict(t *testing.T) {
	c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 4})
	g1 := c.Acquire(1, 65, false) // 4 blocks, fills the device tier
	if g1.Pinned != 4 {
		t.Fatalf("setup: %+v", g1)
	}
	g2 := c.Acquire(2, 65, false)
	if g2.Pinned != 0 || g2.Unallocated != 4 || g2.Evicted != 0 {
		t.Fatalf("acquire against fully pinned tier: %+v", g2)
	}
	// Release session 1; session 2 can now allocate by evicting.
	c.Release(1, g1.Pinned)
	g3 := c.Acquire(2, 65, false)
	if g3.Pinned != 4 || g3.Misses != 4 || g3.Evicted != 4 {
		t.Fatalf("acquire after release: %+v", g3)
	}
	checkLedger(t, c)
}

// LRU evicts the coldest session; the reused one survives.
func TestLRUOrder(t *testing.T) {
	c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 4})
	gA := c.Acquire(1, 33, false) // 2 blocks
	c.Release(1, gA.Pinned)
	gB := c.Acquire(2, 33, false) // 2 blocks
	c.Release(2, gB.Pinned)
	// Touch session 1 again: it becomes most recently used.
	gA2 := c.Acquire(1, 33, false)
	if gA2.Hits != 2 {
		t.Fatalf("retouch: %+v", gA2)
	}
	c.Release(1, gA2.Pinned)
	// Two new blocks must evict session 2's, not session 1's.
	g3 := c.Acquire(3, 33, false)
	c.Release(3, g3.Pinned)
	if got := c.Acquire(1, 33, false); got.Hits != 2 {
		t.Fatalf("LRU evicted the recently used session: %+v", got)
	}
	checkLedger(t, c)
}

// FIFO evicts in creation order even when the oldest block was just
// reused.
func TestFIFOOrder(t *testing.T) {
	c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 4, Policy: FIFO})
	gA := c.Acquire(1, 33, false) // blocks born 1,2
	c.Release(1, gA.Pinned)
	gB := c.Acquire(2, 33, false) // blocks born 3,4
	c.Release(2, gB.Pinned)
	gA2 := c.Acquire(1, 33, false) // reuse does not refresh FIFO order
	c.Release(1, gA2.Pinned)
	g3 := c.Acquire(3, 33, false) // evicts session 1's blocks (oldest born)
	c.Release(3, g3.Pinned)
	if got := c.Acquire(2, 33, false); got.Hits != 2 {
		t.Fatalf("FIFO evicted the younger session: %+v", got)
	}
	checkLedger(t, c)
}

// With a host tier, evicted blocks spill and a later acquire restores
// them instead of missing.
func TestSpillAndRestore(t *testing.T) {
	c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 4, HostSpillBlocks: 8})
	g1 := c.Acquire(1, 65, false) // 4 blocks
	c.Release(1, g1.Pinned)
	g2 := c.Acquire(2, 65, false) // evicts session 1's 4 blocks to host
	if g2.Evicted != 4 || g2.Spilled != 4 {
		t.Fatalf("spill: %+v", g2)
	}
	if c.HostResident() != 4 {
		t.Fatalf("host resident: got %d, want 4", c.HostResident())
	}
	c.Release(2, g2.Pinned)
	g3 := c.Acquire(1, 65, false)
	if g3.Restored != 4 || g3.Misses != 0 {
		t.Fatalf("restore: %+v", g3)
	}
	if g3.CreditTokens != 64 {
		t.Fatalf("restored credit: got %d, want 64", g3.CreditTokens)
	}
	checkLedger(t, c)
}

// Without a host tier the same eviction drops the blocks and the
// re-acquire misses.
func TestDropWithoutSpill(t *testing.T) {
	c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 4})
	g1 := c.Acquire(1, 65, false)
	c.Release(1, g1.Pinned)
	g2 := c.Acquire(2, 65, false)
	if g2.Evicted != 4 || g2.Spilled != 0 {
		t.Fatalf("drop: %+v", g2)
	}
	c.Release(2, g2.Pinned)
	g3 := c.Acquire(1, 65, false)
	if g3.Misses != 4 || g3.Restored != 0 {
		t.Fatalf("re-acquire after drop: %+v", g3)
	}
	checkLedger(t, c)
}

// The host tier itself evicts when full.
func TestHostEviction(t *testing.T) {
	c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 2, HostSpillBlocks: 2})
	for s := int64(1); s <= 3; s++ {
		g := c.Acquire(s, 33, false) // 2 blocks each, each acquire evicts the prior pair
		c.Release(s, g.Pinned)
	}
	st := c.Stats()
	if st.Spills != 4 || st.HostEvictions != 2 {
		t.Fatalf("host eviction: %+v", st)
	}
	if c.HostResident() != 2 {
		t.Fatalf("host resident: got %d, want 2", c.HostResident())
	}
	checkLedger(t, c)
}

// Regression: promoting a host block whose own promotion forces a spill
// into a full host tier must never pick the promoted block as the
// host-eviction victim. With one device block and one host block, two
// alternating sessions make every acquire a promotion whose spill lands
// in the slot the promotion just freed — no host block is ever dropped,
// and the cache keeps serving restores forever.
func TestPromoteWithFullHostTier(t *testing.T) {
	c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 1, HostSpillBlocks: 1})
	for s := int64(1); s <= 2; s++ {
		g := c.Acquire(s, 17, false) // 1 block each; session 2 spills session 1 to host
		c.Release(s, g.Pinned)
	}
	for turn := 0; turn < 6; turn++ {
		s := int64(1 + turn%2)
		g := c.Acquire(s, 17, false)
		if g.Restored != 1 || g.Unallocated != 0 || g.HostEvicted != 0 {
			t.Fatalf("turn %d session %d: %+v", turn, s, g)
		}
		if c.DeviceResident() != 1 || c.HostResident() != 1 {
			t.Fatalf("turn %d occupancy: device %d host %d, want 1/1",
				turn, c.DeviceResident(), c.HostResident())
		}
		c.Release(s, g.Pinned)
	}
	if st := c.Stats(); st.HostEvictions != 0 {
		t.Fatalf("promotions dropped host blocks: %+v", st)
	}
	checkLedger(t, c)
}

// Transferred acquires count host promotions as hits, not restores, and
// grant no reuse credit toward the ledger's ReusedTokens.
func TestTransferredAcquire(t *testing.T) {
	c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 4, HostSpillBlocks: 8})
	g1 := c.Acquire(1, 65, false)
	c.Release(1, g1.Pinned)
	g2 := c.Acquire(2, 65, false) // spills session 1 to host
	c.Release(2, g2.Pinned)
	g3 := c.Acquire(1, 65, true)
	if g3.Hits != 4 || g3.Restored != 0 {
		t.Fatalf("transferred promote: %+v", g3)
	}
	if got := c.Stats().ReusedTokens; got != 0 {
		t.Fatalf("transferred acquire accrued reuse credit: %d", got)
	}
	checkLedger(t, c)
}

// Peek is read-only and reports only the contiguous device-resident
// run from the prompt start.
func TestPeek(t *testing.T) {
	c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 8, HostSpillBlocks: 8})
	before := c.Stats()
	if got := c.Peek(1, 100); got != 0 {
		t.Fatalf("peek on empty cache: %d", got)
	}
	g := c.Acquire(1, 100, false) // 6 blocks
	c.Release(1, g.Pinned)
	if got := c.Peek(1, 100); got != 96 {
		t.Fatalf("peek after fill: got %d, want 96", got)
	}
	// Shorter prompt peeks fewer blocks.
	if got := c.Peek(1, 33); got != 32 {
		t.Fatalf("short peek: got %d, want 32", got)
	}
	after := c.Stats()
	// Only the Acquire moved the ledger; the Peeks did not.
	if after.Lookups != before.Lookups+6 {
		t.Fatalf("peek moved the ledger: %+v → %+v", before, after)
	}
	if c.Peek(0, 100) != 0 {
		t.Fatal("sessionless peek must be 0")
	}
	var nilCache *Cache
	if nilCache.Peek(1, 100) != 0 {
		t.Fatal("nil-cache peek must be 0")
	}
}

// Shared pins: two in-flight requests of one session share refcounts;
// blocks free only after both release.
func TestSharedPins(t *testing.T) {
	c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 4})
	gA := c.Acquire(1, 65, false)
	gB := c.Acquire(1, 65, false)
	if gB.Hits != 4 {
		t.Fatalf("second in-flight acquire: %+v", gB)
	}
	c.Release(1, gA.Pinned)
	// Still pinned by B: a foreign acquire cannot evict.
	g2 := c.Acquire(2, 65, false)
	if g2.Unallocated != 4 {
		t.Fatalf("eviction under shared pin: %+v", g2)
	}
	c.Release(1, gB.Pinned)
	g3 := c.Acquire(2, 65, false)
	if g3.Misses != 4 {
		t.Fatalf("acquire after full release: %+v", g3)
	}
	checkLedger(t, c)
}

// Two identical operation sequences produce identical ledgers and
// occupancy — no hidden nondeterminism.
func TestDeterministicReplay(t *testing.T) {
	run := func() (Stats, int, int) {
		c := mustNew(t, Config{BlockTokens: 16, DeviceBlocks: 6, HostSpillBlocks: 4})
		for i := 0; i < 50; i++ {
			s := int64(i%5 + 1)
			g := c.Acquire(s, int64(40+i*7%120), false)
			if i%3 != 0 {
				c.Release(s, g.Pinned)
			}
		}
		return c.Stats(), c.DeviceResident(), c.HostResident()
	}
	s1, d1, h1 := run()
	s2, d2, h2 := run()
	if s1 != s2 || d1 != d2 || h1 != h2 {
		t.Fatalf("replay diverged: %+v/%d/%d vs %+v/%d/%d", s1, d1, h1, s2, d2, h2)
	}
}

// warmRound returns one request's cache round trip — Peek, Acquire,
// then Release — over a warmed LRU cache with a host tier. Requests
// pick one of 64 sessions with 31-block prompts, more than device plus
// host can hold, so the steady state mixes hits, restores, misses,
// evictions, spills and host drops.
func warmRound(tb testing.TB) (round func(), c *Cache) {
	const sessions, prompt = 64, 1024
	c, err := New(Config{DeviceBlocks: 1024, HostSpillBlocks: 512})
	if err != nil {
		tb.Fatal(err)
	}
	x := uint64(1)
	session := func() int64 { // a fixed LCG: a deterministic session mix
		x = x*6364136223846793005 + 1442695040888963407
		return int64(x>>33)%sessions + 1
	}
	round = func() {
		s := session()
		peeked = c.Peek(s, prompt)
		c.Release(s, c.Acquire(s, prompt, false).Pinned)
	}
	for i := 0; i < 4*sessions; i++ {
		round()
	}
	return round, c
}

// BenchmarkKVCacheAcquireRelease times one warm round trip (see
// warmRound).
func BenchmarkKVCacheAcquireRelease(b *testing.B) {
	round, _ := warmRound(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// peeked keeps the benchmark's Peek results live.
var peeked int64
