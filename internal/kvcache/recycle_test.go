package kvcache

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkStructure verifies the cache's internal structure: every map
// entry is keyed by its own block; both eviction lists are well linked,
// hold exactly the unpinned blocks of their tier and match their
// counts; the device count matches the device-resident blocks; and no
// free-list block is reachable from the map or either list.
func checkStructure(t *testing.T, c *Cache, op int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("op %d: %s", op, fmt.Sprintf(format, args...))
	}
	free := map[*block]bool{}
	for b := c.free; b != nil; b = b.next {
		if free[b] {
			fail("free list has a cycle")
		}
		free[b] = true
		if b.refs != 0 || b.inList || b.prev != nil {
			fail("free block pinned or still linked: %+v", *b)
		}
	}
	walk := func(name string, l *evictList, onHost bool) map[*block]bool {
		in := map[*block]bool{}
		var prev *block
		for b := l.front; b != nil; b = b.next {
			if in[b] {
				fail("%s list has a cycle", name)
			}
			in[b] = true
			if free[b] {
				fail("%s list reaches a free block", name)
			}
			if b.prev != prev || !b.inList || b.onHost != onHost || b.refs != 0 {
				fail("%s list block %x badly linked or in the wrong tier: %+v", name, b.key, *b)
			}
			prev = b
		}
		if l.back != prev || len(in) != l.n {
			fail("%s list: %d blocks walked, count %d, back matches %v", name, len(in), l.n, l.back == prev)
		}
		return in
	}
	dev := walk("device", &c.deviceFree, false)
	host := walk("host", &c.hostList, true)
	device := 0
	for k, b := range c.blocks {
		if b.key != k {
			fail("map key %x holds block %x", k, b.key)
		}
		if free[b] {
			fail("map key %x reaches a free block", k)
		}
		switch {
		case b.onHost:
			if !host[b] {
				fail("host block %x not on the host list", k)
			}
		case b.refs == 0:
			device++
			if !dev[b] {
				fail("unpinned device block %x not on the device list", k)
			}
		default:
			device++
			if b.inList {
				fail("pinned block %x on an eviction list", k)
			}
		}
	}
	if device != c.deviceUsed || device > c.deviceCap || c.hostList.n > c.hostCap {
		fail("device blocks %d, deviceUsed %d (cap %d), host %d (cap %d)",
			device, c.deviceUsed, c.deviceCap, c.hostList.n, c.hostCap)
	}
	if len(dev)+len(host) > len(c.blocks) {
		fail("lists hold %d blocks, map %d", len(dev)+len(host), len(c.blocks))
	}
}

// checkPlacements checks the exact block conservation behind the
// ledger: every device placement (a miss, a restore, or a transferred
// request's host promotion, which the ledger counts as a hit and
// tallies in its unexported promotion counter) is either still
// device-resident or was evicted since.
func checkPlacements(t *testing.T, c *Cache, op int, transferred bool) {
	t.Helper()
	s := c.Stats()
	promoted := s.Evictions + int64(c.deviceUsed) - s.Misses - s.Restored
	if promoted != s.promoted || promoted > s.Hits || (!transferred && promoted != 0) {
		t.Fatalf("op %d: evictions %d + device-resident %d - misses %d - restored %d = %d transferred promotions, ledger counts %d (hits %d)",
			op, s.Evictions, c.deviceUsed, s.Misses, s.Restored, promoted, s.promoted, s.Hits)
	}
}

// TestRecyclingKeepsStructure drives random Peek/Acquire/Release
// sequences under both policies, with and without a host tier and with
// and without transferred acquires, and checks the structure and the
// ledger after every operation. The caches are small next to the
// session mix, so blocks are dropped and recycled throughout: the run
// sees far more misses than the tiers hold, yet never more distinct
// blocks than they hold. (A miss that forces a drop reuses the dropped
// block at once, so between operations the free list is usually empty;
// the distinct-block count is what shows the reuse.)
func TestRecyclingKeepsStructure(t *testing.T) {
	for _, policy := range []Policy{LRU, FIFO} {
		for _, host := range []int{0, 6} {
			for _, transferred := range []bool{false, true} {
				name := fmt.Sprintf("%v/host=%d/transferred=%v", policy, host, transferred)
				t.Run(name, func(t *testing.T) {
					recycleRun(t, policy, host, transferred)
				})
			}
		}
	}
}

func recycleRun(t *testing.T, policy Policy, host int, transferred bool) {
	c := mustNew(t, Config{BlockTokens: 8, DeviceBlocks: 12, HostSpillBlocks: host, Policy: policy})
	rng := rand.New(rand.NewSource(int64(31*host) + int64(policy)))
	type hold struct {
		session int64
		pinned  int
	}
	var held []hold
	seen := map[*block]bool{}
	for op := 0; op < 5000; op++ {
		session := int64(rng.Intn(9))
		prompt := int64(rng.Intn(90))
		switch k := rng.Intn(10); {
		case k < 3:
			c.Peek(session, prompt)
		case k < 7 || len(held) == 0:
			g := c.Acquire(session, prompt, transferred && rng.Intn(3) == 0)
			held = append(held, hold{session, g.Pinned})
		default:
			i := rng.Intn(len(held))
			c.Release(held[i].session, held[i].pinned)
			held = append(held[:i], held[i+1:]...)
		}
		// Keep pins bounded so the device tier keeps evicting.
		if len(held) > 3 {
			c.Release(held[0].session, held[0].pinned)
			held = held[1:]
		}
		checkStructure(t, c, op)
		checkPlacements(t, c, op, transferred)
		if err := c.Stats().Reconcile(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if !transferred {
			checkLedger(t, c)
		}
		for _, b := range c.blocks {
			seen[b] = true
		}
	}
	s := c.Stats()
	if limit := c.deviceCap + c.hostCap; len(seen) > limit || s.Misses < int64(10*limit) {
		t.Fatalf("%d distinct blocks for %d misses, want at most %d blocks", len(seen), s.Misses, limit)
	}
	if s.Evictions == 0 || (host > 0 && s.HostEvictions == 0) {
		t.Fatalf("the run never dropped a block: %+v", s)
	}
}
