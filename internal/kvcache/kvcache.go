// Package kvcache models a block-level, prefix-aware KV cache with
// refcounted pinning, LRU/FIFO eviction, and a two-tier capacity model:
// a fixed pool of device blocks plus an optional host-memory spill tier.
//
// The prompt prefix of a session is split into fixed-size token blocks
// and each block is addressed by a chain hash over (parent block,
// session, block index) — the simulator has no token content, so a
// session's prefix identity *is* its (session, index) chain, exactly
// the way a real prefix cache keys blocks by the hash chain of their
// token contents. A request Acquires its prefix blocks at admission:
// resident device blocks pin in place (hits), host-tier blocks promote
// back to device (restores, priced by the caller through the platform
// interconnect model), and missing blocks allocate fresh (misses),
// evicting cold unpinned blocks to the host tier — or dropping them
// when no spill capacity is configured. Release unpins; blocks with a
// zero refcount become eviction candidates but stay resident, which is
// what makes a later turn of the same session hit.
//
// The cache is observer-free and fully deterministic: eviction order is
// a doubly-linked list ordered by explicit pin/unpin operations (LRU)
// or block creation order (FIFO), never map iteration or wall-clock
// time. All counters form an exact ledger (see Stats).
package kvcache

import "fmt"

// Policy selects the eviction order among unpinned device blocks.
type Policy int

const (
	// LRU evicts the block least recently released (the default).
	LRU Policy = iota
	// FIFO evicts the oldest-created unpinned block.
	FIFO
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Policies lists the parseable eviction policy names.
func Policies() []string { return []string{"lru", "fifo"} }

// ParsePolicy parses an eviction policy name.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "lru":
		return LRU, nil
	case "fifo":
		return FIFO, nil
	default:
		return 0, fmt.Errorf("kvcache: unknown eviction policy %q (have lru|fifo)", name)
	}
}

// Config sizes a cache.
type Config struct {
	// BlockTokens is the tokens per block (default 32).
	BlockTokens int64
	// DeviceBlocks is the device-tier capacity in blocks. Required,
	// positive.
	DeviceBlocks int
	// HostSpillBlocks is the host-tier capacity in blocks; evicted
	// device blocks spill there instead of dropping. 0 disables the
	// tier.
	HostSpillBlocks int
	// Policy is the eviction order (default LRU).
	Policy Policy
}

// Grant reports what one Acquire did: how many prefix blocks were
// pinned for the request and where they came from. Counts are in
// blocks.
type Grant struct {
	// Pinned is the number of prefix blocks now pinned device-resident
	// for this request; pass it back to Release when the request leaves.
	Pinned int
	// Hits pinned already-device-resident blocks.
	Hits int
	// Restored promoted host-tier blocks back to device; the caller
	// prices the copy through its interconnect model.
	Restored int
	// Misses allocated fresh device blocks (the prefill will fill
	// them).
	Misses int
	// Unallocated counts wanted blocks that could not be placed because
	// every device block was pinned; the request computes those tokens
	// through the ordinary KV pool instead.
	Unallocated int
	// CreditTokens is the prefill reuse credit: the contiguous run of
	// cached (hit or restored) blocks from the prompt start, in tokens.
	// Blocks cached beyond the first gap still pin, but grant no credit
	// — prefill progress is a scalar.
	CreditTokens int64
	// Evicted / Spilled / HostEvicted count the evictions this Acquire
	// forced: device blocks evicted, the subset that spilled to host,
	// and host blocks dropped to make room for spills.
	Evicted     int
	Spilled     int
	HostEvicted int
}

// Stats is the cache ledger. Every counter is cumulative and the set
// reconciles exactly (see Reconcile):
//
//	Lookups       == Hits + Restored + Misses + Unallocated
//	Evictions     == Spills + device drops, and every evicted block had a
//	                 prior device placement: a miss, a restore, or a
//	                 transferred acquire's host promotion (counted as a
//	                 hit), so Evictions ≤ Misses + Restored + promotions
//	HostEvictions ≤ Spills
type Stats struct {
	// Lookups counts prefix blocks wanted across all Acquires.
	Lookups int64
	// Hits / Restored / Misses / Unallocated partition Lookups.
	Hits        int64
	Restored    int64
	Misses      int64
	Unallocated int64
	// Evictions counts device blocks evicted; Spills the subset moved
	// to the host tier; HostEvictions host blocks dropped.
	Evictions     int64
	Spills        int64
	HostEvictions int64
	// ReusedTokens is the total prefill reuse credit granted (fresh
	// requests only; transferred caches arrive with their prefill done).
	ReusedTokens int64

	// promoted counts transferred acquires' host-to-device promotions:
	// device placements the ledger reports as hits. Unexported, so
	// reports omit it; only the eviction bound reads it.
	promoted int64
}

// Add sums another ledger into s, counter by counter. Ledgers of
// separate caches add into a fleet ledger that reconciles whenever its
// parts do.
func (s *Stats) Add(o Stats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Restored += o.Restored
	s.Misses += o.Misses
	s.Unallocated += o.Unallocated
	s.Evictions += o.Evictions
	s.Spills += o.Spills
	s.HostEvictions += o.HostEvictions
	s.ReusedTokens += o.ReusedTokens
	s.promoted += o.promoted
}

// Reconcile checks the ledger's conservation laws (see Stats).
func (s Stats) Reconcile() error {
	if s.Lookups != s.Hits+s.Restored+s.Misses+s.Unallocated {
		return fmt.Errorf("kv cache ledger broken: lookups %d != hits %d + restored %d + misses %d + unallocated %d",
			s.Lookups, s.Hits, s.Restored, s.Misses, s.Unallocated)
	}
	if s.Evictions > s.Misses+s.Restored+s.promoted {
		return fmt.Errorf("kv cache ledger broken: evictions %d exceed device placements (misses %d + restored %d + transferred promotions %d)",
			s.Evictions, s.Misses, s.Restored, s.promoted)
	}
	if s.Spills > s.Evictions {
		return fmt.Errorf("kv cache ledger broken: spills %d exceed evictions %d", s.Spills, s.Evictions)
	}
	if s.HostEvictions > s.Spills {
		return fmt.Errorf("kv cache ledger broken: host evictions %d exceed spills %d", s.HostEvictions, s.Spills)
	}
	return nil
}

// block is one cached prefix block. A block is either device-resident
// (possibly pinned) or on the host tier (never pinned). Unpinned blocks
// sit in their tier's eviction list; pinned blocks are off-list. A
// block dropped from the cache goes onto the free list (linked through
// next) and the next miss reuses it.
type block struct {
	key    uint64
	refs   int
	onHost bool
	// born orders FIFO eviction: a monotonic creation tick, never
	// wall-clock or virtual time.
	born uint64
	// prev/next link the block into its tier's eviction list (front =
	// evict first). nil links plus list membership tracked by inList.
	prev, next *block
	inList     bool
}

// evictList is a tiny intrusive doubly-linked list over blocks, front =
// next eviction victim.
type evictList struct {
	front, back *block
	n           int
}

func (l *evictList) pushBack(b *block) {
	b.prev, b.next, b.inList = l.back, nil, true
	if l.back != nil {
		l.back.next = b
	} else {
		l.front = b
	}
	l.back = b
	l.n++
}

func (l *evictList) pushFront(b *block) {
	b.prev, b.next, b.inList = nil, l.front, true
	if l.front != nil {
		l.front.prev = b
	} else {
		l.back = b
	}
	l.front = b
	l.n++
}

// insertAfter links b after at (at must be in the list).
func (l *evictList) insertAfter(b, at *block) {
	b.prev, b.next, b.inList = at, at.next, true
	if at.next != nil {
		at.next.prev = b
	} else {
		l.back = b
	}
	at.next = b
	l.n++
}

func (l *evictList) remove(b *block) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.front = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.back = b.prev
	}
	b.prev, b.next, b.inList = nil, nil, false
	l.n--
}

// Cache is a two-tier block cache. Not safe for concurrent use; every
// serving instance owns its own Cache on the single simulation thread.
type Cache struct {
	blockTokens int64
	deviceCap   int
	hostCap     int
	policy      Policy

	blocks     map[uint64]*block
	deviceFree evictList // unpinned device blocks
	hostList   evictList // host-tier blocks (always unpinned)
	// free heads the recycled blocks, singly linked through next. Live
	// blocks never exceed device plus host capacity, so a warm cache's
	// misses allocate nothing.
	free       *block
	deviceUsed int // device blocks resident, pinned or not
	tick       uint64
	stats      Stats
}

// New builds a cache, applying the BlockTokens default (32).
func New(cfg Config) (*Cache, error) {
	if cfg.BlockTokens < 0 {
		return nil, fmt.Errorf("kvcache: block tokens must be non-negative, got %d", cfg.BlockTokens)
	}
	if cfg.BlockTokens == 0 {
		cfg.BlockTokens = 32
	}
	if cfg.DeviceBlocks <= 0 {
		return nil, fmt.Errorf("kvcache: device blocks must be positive, got %d", cfg.DeviceBlocks)
	}
	if cfg.HostSpillBlocks < 0 {
		return nil, fmt.Errorf("kvcache: host spill blocks must be non-negative, got %d", cfg.HostSpillBlocks)
	}
	if cfg.Policy != LRU && cfg.Policy != FIFO {
		return nil, fmt.Errorf("kvcache: unknown eviction policy %d", int(cfg.Policy))
	}
	return &Cache{
		blockTokens: cfg.BlockTokens,
		deviceCap:   cfg.DeviceBlocks,
		hostCap:     cfg.HostSpillBlocks,
		policy:      cfg.Policy,
		blocks:      make(map[uint64]*block),
	}, nil
}

// BlockTokens is the configured tokens per block.
func (c *Cache) BlockTokens() int64 { return c.blockTokens }

// Stats returns a copy of the ledger.
func (c *Cache) Stats() Stats { return c.stats }

// FNV-1a over fixed-width words: the chain hash folding (parent,
// session, index) into a block key.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// blockKey chains block i of a session's prefix onto its parent:
// key_0 = H(0, session, 0), key_i = H(key_{i-1}, session, i).
func blockKey(parent uint64, session int64, index int64) uint64 {
	h := fnvMix(uint64(fnvOffset), parent)
	h = fnvMix(h, uint64(session))
	return fnvMix(h, uint64(index))
}

// wantBlocks is how many prefix blocks a prompt covers. The final
// prompt token is never cached, so every request computes at least one
// prefill token — full-credit requests would otherwise skip prefill
// entirely.
func (c *Cache) wantBlocks(promptLen int64) int64 {
	if promptLen <= 1 {
		return 0
	}
	return (promptLen - 1) / c.blockTokens
}

// Peek reports the request's cached prefix without touching the cache:
// the contiguous run of device-resident blocks from the prompt start,
// in tokens. It is strictly read-only — no refcounts, no eviction
// order, no ledger — so routers and admission checks may call it
// freely. Host-tier blocks are excluded: Peek is the conservative
// lower bound on what Acquire will pin, which keeps an admission
// decision made on Peek valid after Acquire grants more.
func (c *Cache) Peek(session, promptLen int64) int64 {
	if c == nil || session == 0 {
		return 0
	}
	want := c.wantBlocks(promptLen)
	parent := uint64(0)
	var run int64
	for i := int64(0); i < want; i++ {
		key := blockKey(parent, session, i)
		parent = key
		b := c.blocks[key]
		if b == nil || b.onHost {
			break
		}
		run++
	}
	return run * c.blockTokens
}

// Acquire pins the request's prefix blocks for the duration of its
// residency: hits pin in place, host blocks promote back to device,
// misses allocate (evicting unpinned blocks as needed). The walk stops
// at the first block that cannot be placed (every device block pinned);
// the remainder counts as unallocated and the request carries those
// tokens in the ordinary KV pool.
//
// transferred marks a request whose prefix KV arrived over the wire (a
// disaggregated handoff): blocks still pin and allocate — populating
// the destination's cache — but host promotions count as plain hits
// (the bytes were already paid for on the link, not the host
// interconnect) and no reuse credit accrues (its prefill is done).
func (c *Cache) Acquire(session, promptLen int64, transferred bool) Grant {
	var g Grant
	if session == 0 {
		return g
	}
	want := c.wantBlocks(promptLen)
	c.stats.Lookups += want
	parent := uint64(0)
	contiguous := true
	for i := int64(0); i < want; i++ {
		key := blockKey(parent, session, i)
		parent = key
		b := c.blocks[key]
		switch {
		case b != nil && !b.onHost:
			c.pin(b)
			g.Hits++
			if contiguous {
				g.CreditTokens += c.blockTokens
			}
		case b != nil && b.onHost:
			if !c.canFreeDeviceSlot() {
				g.Unallocated = int(want - i)
				c.finish(&g, transferred, want-i)
				return g
			}
			// Pull the promoting block off the host tier before evicting:
			// a spill forced by this promotion must never pick b as its
			// host-eviction victim, and b's freed host slot absorbs the
			// spilled block instead of dropping another host block.
			c.hostList.remove(b)
			b.onHost = false
			c.freeDeviceSlot(&g)
			b.refs = 1
			c.deviceUsed++
			if transferred {
				g.Hits++
				c.stats.promoted++
			} else {
				g.Restored++
			}
			if contiguous {
				g.CreditTokens += c.blockTokens
			}
		default:
			if !c.freeDeviceSlot(&g) {
				g.Unallocated = int(want - i)
				c.finish(&g, transferred, want-i)
				return g
			}
			c.place(key)
			c.deviceUsed++
			g.Misses++
			contiguous = false
		}
		g.Pinned++
	}
	c.finish(&g, transferred, 0)
	return g
}

// finish folds a grant into the ledger.
func (c *Cache) finish(g *Grant, transferred bool, unallocated int64) {
	c.stats.Hits += int64(g.Hits)
	c.stats.Restored += int64(g.Restored)
	c.stats.Misses += int64(g.Misses)
	c.stats.Unallocated += unallocated
	if !transferred {
		c.stats.ReusedTokens += g.CreditTokens
	}
}

// canFreeDeviceSlot reports whether freeDeviceSlot would succeed: a
// device slot is open or an unpinned block can be evicted. It never
// mutates, so callers may check it before touching tier state.
func (c *Cache) canFreeDeviceSlot() bool {
	return c.deviceUsed < c.deviceCap || c.deviceFree.front != nil
}

// freeDeviceSlot makes room for one device block, evicting the coldest
// unpinned block if the tier is full — spilling it to the host tier
// when one is configured (dropping the coldest host block if that tier
// is full too), dropping it otherwise. Returns false when every device
// block is pinned.
func (c *Cache) freeDeviceSlot(g *Grant) bool {
	if c.deviceUsed < c.deviceCap {
		return true
	}
	victim := c.deviceFree.front
	if victim == nil {
		return false
	}
	c.deviceFree.remove(victim)
	c.deviceUsed--
	c.stats.Evictions++
	g.Evicted++
	if c.hostCap > 0 {
		if c.hostList.n >= c.hostCap {
			hv := c.hostList.front
			c.hostList.remove(hv)
			c.drop(hv)
			c.stats.HostEvictions++
			g.HostEvicted++
		}
		victim.onHost = true
		c.hostList.pushBack(victim)
		c.stats.Spills++
		g.Spilled++
	} else {
		c.drop(victim)
	}
	return true
}

// place maps key to a fresh block pinned once, reusing a block from the
// free list when there is one.
func (c *Cache) place(key uint64) {
	c.tick++
	b := c.free
	if b != nil {
		c.free = b.next
		*b = block{key: key, refs: 1, born: c.tick}
	} else {
		b = &block{key: key, refs: 1, born: c.tick}
	}
	c.blocks[key] = b
}

// drop unmaps an off-list block and puts it on the free list; place
// resets every field when it reuses the block.
func (c *Cache) drop(b *block) {
	delete(c.blocks, b.key)
	b.next = c.free
	c.free = b
}

// pin takes a reference on a device-resident block, removing it from
// the eviction list on the 0→1 transition.
func (c *Cache) pin(b *block) {
	if b.refs == 0 && b.inList {
		c.deviceFree.remove(b)
	}
	b.refs++
}

// Release drops the request's pins on its first `pinned` prefix blocks
// (the Grant.Pinned count from its Acquire). Blocks whose refcount
// reaches zero join the eviction list — LRU at the warm end, FIFO in
// creation order — but stay resident: that residency is the next
// turn's hit.
func (c *Cache) Release(session int64, pinned int) {
	parent := uint64(0)
	for i := 0; i < pinned; i++ {
		key := blockKey(parent, session, int64(i))
		parent = key
		b := c.blocks[key]
		if b == nil || b.onHost || b.refs == 0 {
			continue // defensive: a pinned block cannot be evicted or spilled
		}
		b.refs--
		if b.refs == 0 {
			c.unpinned(b)
		}
	}
}

// unpinned inserts a newly-unpinned block into the device eviction
// list according to the policy.
func (c *Cache) unpinned(b *block) {
	if c.policy == FIFO {
		for at := c.deviceFree.back; at != nil; at = at.prev {
			if at.born <= b.born {
				c.deviceFree.insertAfter(b, at)
				return
			}
		}
		c.deviceFree.pushFront(b)
		return
	}
	c.deviceFree.pushBack(b)
}

// DeviceResident / HostResident report current occupancy in blocks.
func (c *Cache) DeviceResident() int { return c.deviceUsed }
func (c *Cache) HostResident() int   { return c.hostList.n }
