package serve

import (
	"fmt"
	"slices"
	"strconv"

	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/kvcache"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/sim"
)

// The continuous-batching simulator: a discrete-event loop on
// sim.Calendar implementing iteration-level (Orca-style) scheduling.
// Each iteration the engine processes, for every running request, one
// unit of work — a prefill chunk while the prompt is unconsumed, one
// decode token afterwards. Requests join the running batch between
// iterations as KV-cache capacity allows and leave the moment they
// finish, so the batch composition tracks the offered load instead of
// being frozen at dispatch time (the legacy policies' run-to-completion
// regime).
//
// KV-cache capacity model: each cached token costs
// 2 (K and V) × Layers × KVDim × 2 bytes (fp16); the budget is the
// GPU's HBM × KVMemoryUtil minus the fp16 weights. Admission reserves
// the prompt's KV up front (queue-on-full, FIFO head-of-line), and
// decode growth that overflows the budget preempts the youngest running
// request vLLM-recompute-style: its KV is released and it re-queues at
// the head of the wait queue to be recomputed.

// kvBytesPerToken is the KV-cache cost of one cached token position:
// a key and a value vector of KVDim halves per layer.
func kvBytesPerToken(m *models.Config) float64 {
	return float64(2 * m.Layers * m.KVDim() * 2)
}

// KVBytesPerToken is the per-cached-token KV-cache footprint of a model
// — what one token position costs in HBM, and therefore what one token
// position costs to ship between instances in a disaggregated handoff.
func KVBytesPerToken(m *models.Config) float64 { return kvBytesPerToken(m) }

// contRequest tracks one request through the continuous scheduler.
type contRequest struct {
	// req carries the resolved lengths: the config fallbacks for a zero
	// PromptLen/OutputLen are applied on entry (see resolve).
	req        Request
	promptDone int64 // prefill tokens consumed so far
	generated  int64 // output tokens produced so far
	// delivered is the high-water mark of generated across preemptions:
	// recomputed tokens are regenerated internally but were already
	// streamed to the user, so throughput counts them once.
	delivered int64
	kvBytes   float64
	firstTok  sim.Time // time of first output token (TTFT anchor)
	hasFirst  bool
	abandonEv sim.Handle
	// resumed marks a request continuing mid-stream from another
	// instance's prefill: TTFT is already anchored and the request never
	// abandons (its user is already streaming tokens).
	resumed bool
	// pinned counts the prefix-cache blocks this request holds pins on
	// (the Grant.Pinned of its admission Acquire); released when the
	// request completes, hands off, preempts, or is killed.
	pinned int
	// restoreStall is the pending host-tier restore penalty, charged
	// once to the request's next iteration.
	restoreStall sim.Time
	// chunk is the prompt chunk the in-flight iteration prefills for
	// this request; 0 means the iteration decodes one token for it.
	chunk int64
	// running mirrors membership of contSim.running: set where the
	// request joins the batch (admit), cleared wherever it leaves
	// (preemption, completion, handoff, kill).
	running bool
}

func (r *contRequest) kvLen() int64 { return r.req.PromptLen + r.generated }

// handoffRecord is the state r carries to another instance.
func (r *contRequest) handoffRecord() Handoff {
	return Handoff{Req: r.req, Delivered: r.delivered, FirstToken: r.firstTok, HasFirst: r.hasFirst}
}

// waitQueue is the FIFO wait queue. Pops advance a head index rather
// than reslicing the front away, so the array keeps its capacity and a
// steady arrive/admit cycle allocates nothing. A push into a full array
// slides the live requests back to the front when at least half of it
// is popped slots, and grows it otherwise, so every operation is O(1)
// amortized.
//
// tokens is the queued requests' summed PromptLen, kept as they come
// and go, so the KV pressure they add costs O(1).
type waitQueue struct {
	buf    []*contRequest
	head   int
	tokens int64
}

func (q *waitQueue) len() int { return len(q.buf) - q.head }

// items returns the queued requests, oldest first.
func (q *waitQueue) items() []*contRequest { return q.buf[q.head:] }

func (q *waitQueue) front() *contRequest { return q.buf[q.head] }

func (q *waitQueue) popFront() {
	q.tokens -= q.buf[q.head].req.PromptLen
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

func (q *waitQueue) push(r *contRequest) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, r)
	q.tokens += r.req.PromptLen
}

// pushFront re-queues r ahead of every waiting request.
func (q *waitQueue) pushFront(r *contRequest) {
	q.tokens += r.req.PromptLen
	if q.head > 0 {
		q.head--
		q.buf[q.head] = r
		return
	}
	q.buf = slices.Insert(q.buf, 0, r)
}

// remove deletes items()[i], keeping the order of the rest.
func (q *waitQueue) remove(i int) {
	q.tokens -= q.buf[q.head+i].req.PromptLen
	q.buf = slices.Delete(q.buf, q.head+i, q.head+i+1)
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

type contSim struct {
	cfg         Config
	cal         *sim.Calendar
	sm          *engine.StepModel
	bytesPerTok float64
	capacity    float64

	waiting     waitQueue
	running     []*contRequest // admission order: oldest first
	kvUsed      float64
	busy        bool
	kickPending bool
	err         error
	// cache is the optional block-level prefix cache (nil when
	// cfg.KVCache is nil); restoredBytes / restoreStall accumulate its
	// host-tier restore economics.
	cache         *kvcache.Cache
	restoredBytes float64
	restoreStall  sim.Time
	// state is the dynamic-fleet lifecycle state (see lifecycle.go);
	// static simulations stay Active forever.
	state InstanceState
	// slowFactor scales iteration durations (slow-node fault; 0 or 1 =
	// full speed).
	slowFactor float64
	// handoff, when set, makes the instance prefill-only (see
	// Instance.SetHandoff).
	handoff func(now sim.Time, h Handoff)

	// accumulators
	ttfts, tpots, e2es []sim.Time
	completed          int
	abandoned          int
	handedOff          int
	resumed            int
	killed             int
	preemptions        int
	iterations         int
	totalBatch         int
	tokensOut          int64
	lastCompletion     sim.Time
	series             stateSeries // the QueueDepth / KVOccupancy points
	maxQueue           int
	peakKV             float64
	kvIntegral         float64 // ∫ kvFrac dt
	lastSampleT        sim.Time
	lastKVFrac         float64 // KV fraction as of lastSampleT
	// Windowed downsampling state (cfg.StateWindow > 0): the open
	// window's start and its queue/KV level integrals. Completed
	// windows flush one time-weighted mean point each.
	winStart   sim.Time
	winQueue   float64
	winKV      float64
	lastQueueN int

	// batch is the in-flight iteration's batch (a copy of running at
	// kick time) and finish its completion callback, bound once. Only
	// one iteration is in flight per instance (busy), so both are
	// reused across iterations.
	batch  []*contRequest
	finish func(end sim.Time)
	// kickFn is the deferred scheduling decision an idle arrival
	// schedules (see arrive), bound once like finish.
	kickFn func(now sim.Time)

	// leapOn enables leaping over pure-decode iterations and lp is the
	// leap in flight (see leap.go).
	leapOn bool
	lp     leap

	// slab is the chunk new requests are carved from (see newSlot);
	// slab[slabNext:] is unused.
	slab     []contRequest
	slabNext int
}

// newContSim builds a continuous-batching simulator on the given
// calendar. Owning the calendar is the caller's business: Simulate
// creates a private one and drains it, while cluster-level simulations
// share one calendar across many instances (see serve.Instance).
func newContSim(cfg Config, cal *sim.Calendar) (*contSim, error) {
	if cfg.DefaultOutputLen <= 0 {
		cfg.DefaultOutputLen = 1
	}
	if cfg.PrefillChunk <= 0 {
		cfg.PrefillChunk = 512
	}
	if cfg.KVMemoryUtil == 0 {
		cfg.KVMemoryUtil = 0.9
	}
	sm, err := engine.SharedStepModel(cfg.Platform, cfg.Model, cfg.Mode, cfg.LatencyBucket)
	if err != nil {
		return nil, err
	}
	s := &contSim{
		cfg:         cfg,
		cal:         cal,
		sm:          sm,
		bytesPerTok: kvBytesPerToken(cfg.Model),
	}
	s.finish = s.finishIteration
	s.leapOn = leapOn
	s.kickFn = func(now sim.Time) {
		s.kickPending = false
		s.kick(now)
	}
	s.capacity = cfg.KVCapacityBytes
	if s.capacity <= 0 {
		hbm := float64(cfg.Platform.GPU.HBMGB) * 1e9
		weights := float64(cfg.Model.Params()) * 2 // fp16
		s.capacity = float64(hbm*cfg.KVMemoryUtil) - weights
	}
	if s.capacity <= 0 {
		return nil, fmt.Errorf("serve: %s does not fit on %s: KV budget %.2f GB after fp16 weights",
			cfg.Model.Name, cfg.Platform.Name, s.capacity/1e9)
	}
	if cfg.KVCache != nil {
		s.cache, err = kvcache.New(kvcache.Config{
			BlockTokens:     cfg.KVCache.BlockTokens,
			DeviceBlocks:    cfg.KVCache.DeviceBlocks,
			HostSpillBlocks: cfg.KVCache.HostSpillBlocks,
			Policy:          cfg.KVCache.Policy,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	return s, nil
}

// resolve applies the config's length fallbacks: a zero PromptLen
// takes Seq and a zero OutputLen takes DefaultOutputLen.
func (s *contSim) resolve(req Request) Request {
	if req.PromptLen <= 0 {
		req.PromptLen = s.cfg.Seq
	}
	if req.OutputLen <= 0 {
		req.OutputLen = s.cfg.DefaultOutputLen
	}
	return req
}

// lifetimeKV is the request's peak KV footprint given the config's
// length fallbacks.
func (s *contSim) lifetimeKV(req Request) float64 {
	req = s.resolve(req)
	return float64(req.PromptLen+req.OutputLen) * s.bytesPerTok
}

// newRequest resolves a request's effective lengths and checks
// feasibility: a request whose lifetime KV footprint exceeds the whole
// budget would preempt-livelock, so it is rejected up front.
func (s *contSim) newRequest(req Request) (*contRequest, error) {
	req = s.resolve(req)
	if need := s.lifetimeKV(req); need > s.capacity {
		return nil, fmt.Errorf("serve: request %d needs %.2f GB of KV (prompt %d + output %d tokens) but the budget is %.2f GB",
			req.ID, need/1e9, req.PromptLen, req.OutputLen, s.capacity/1e9)
	}
	return s.newSlot(contRequest{req: req}), nil
}

// newSlot places r in the next unused slot of the request slab and
// returns it. Requests are allocated a chunk at a time, the chunks
// doubling from 16 to 256 slots, so a long simulation makes one
// allocation per 256 requests and a short one wastes little. A slot is
// never reused: a request has one owner, and another instance resuming
// or requeueing it takes a new slot from the Handoff record. A chunk is
// freed once none of its requests is referenced.
func (s *contSim) newSlot(r contRequest) *contRequest {
	if s.slabNext == len(s.slab) {
		s.slab, s.slabNext = make([]contRequest, min(max(2*len(s.slab), 16), 256)), 0
	}
	cr := &s.slab[s.slabNext]
	s.slabNext++
	*cr = r
	return cr
}

// emit reports a lifecycle event for cr to the configured observer.
func (s *contSim) emit(now sim.Time, t EventType, cr *contRequest) {
	if s.cfg.Observer == nil {
		return
	}
	s.cfg.Observer(Event{
		Time:      now,
		Type:      t,
		RequestID: cr.req.ID,
		SessionID: cr.req.SessionID,
	})
}

// simulateContinuous runs the ContinuousBatch / ChunkedPrefill policies
// over the (already sorted) request stream.
func simulateContinuous(cfg Config, reqs []Request) (*Stats, error) {
	s, err := newContSim(cfg, sim.NewCalendar())
	if err != nil {
		return nil, err
	}
	crs := make([]*contRequest, len(reqs))
	for i := range reqs {
		cr, err := s.newRequest(reqs[i])
		if err != nil {
			return nil, err
		}
		crs[i] = cr
	}
	s.cal.Stream(len(crs),
		func(i int) sim.Time { return crs[i].req.Arrival },
		func(now sim.Time, i int) { s.arrive(now, crs[i]) })
	s.cal.Run()
	if s.err != nil {
		return nil, s.err
	}
	return s.stats(), nil
}

// arrive enqueues a request, arms its abandonment timer, and pokes the
// scheduler.
func (s *contSim) arrive(now sim.Time, cr *contRequest) {
	if s.err != nil {
		return
	}
	s.cutLeap(now)
	s.waiting.push(cr)
	s.emit(now, EventArrival, cr)
	if s.cfg.AbandonAfter > 0 && !cr.resumed {
		cr.abandonEv = s.cal.Schedule(now+s.cfg.AbandonAfter, func(at sim.Time) { s.abandon(at, cr) })
	}
	if s.busy {
		s.sample(now) // record the deeper queue while the engine runs
		return
	}
	// Defer the scheduling decision to a same-time calendar event: the
	// arrival events were enqueued first, so every request arriving at
	// this instant joins the queue before the iteration forms (real
	// servers coalesce a scheduling tick's arrivals the same way).
	if !s.kickPending {
		s.kickPending = true
		s.cal.Schedule(now, s.kickFn)
	}
}

// abandon drops a request that is still waiting when its patience
// expires. Requests already admitted cancelled this event, so reaching
// here means cr is in the wait queue.
func (s *contSim) abandon(now sim.Time, cr *contRequest) {
	if s.err != nil || s.state == StateStopped {
		return
	}
	for i, w := range s.waiting.items() {
		if w == cr {
			s.waiting.remove(i)
			s.abandoned++
			s.emit(now, EventAbandoned, cr)
			s.sample(now)
			s.maybeFinishDrain(now)
			return
		}
	}
}

// admit moves wait-queue heads into the running batch while the KV
// budget and batch cap allow (FIFO: a head that does not fit blocks the
// queue, the queue-or-preempt policy's "queue" side).
//
// With a prefix cache, a session-bearing head first Peeks its cached
// prefix — a read-only, conservative bound — and the fit check uses the
// reduced footprint. Only once the head actually admits does Acquire
// pin blocks; Acquire can only grant more than the Peek (host-tier
// restores, fresh allocations), so the fit decision stays valid and no
// rollback path exists.
func (s *contSim) admit(now sim.Time) {
	for s.waiting.len() > 0 && len(s.running) < s.cfg.MaxBatch {
		head := s.waiting.front()
		// A resumed request's transferred cache (prompt + tokens already
		// generated elsewhere) is reserved whole; fresh requests have
		// generated == 0 and reserve the prompt alone. Cached prefix
		// blocks live in the cache's own block pool and leave the
		// byte-denominated reservation.
		credit := int64(0)
		if s.cache != nil {
			credit = s.cache.Peek(head.req.SessionID, head.req.PromptLen)
		}
		need := float64(float64(head.req.PromptLen-credit+head.generated) * s.bytesPerTok)
		if s.kvUsed+need > s.capacity {
			return
		}
		s.waiting.popFront()
		s.cal.Cancel(head.abandonEv)
		head.abandonEv = sim.Handle{}
		if s.cache != nil && head.req.SessionID != 0 {
			g := s.cache.Acquire(head.req.SessionID, head.req.PromptLen, head.resumed)
			head.pinned = g.Pinned
			need = float64(head.req.PromptLen-int64(g.Pinned)*s.cache.BlockTokens()+head.generated) * s.bytesPerTok
			if !head.resumed {
				// Reuse credit: the contiguous cached prefix counts as
				// already-prefilled, shortening TTFT. Resumed requests
				// arrive with their prefill done.
				if g.CreditTokens > head.promptDone {
					head.promptDone = g.CreditTokens
				}
				if g.Restored > 0 {
					// Host-tier restore: price the copy back to device
					// through the platform interconnect (free on
					// unified-memory platforms) and charge it to the
					// request's next iteration.
					bytes := float64(float64(g.Restored) * float64(s.cache.BlockTokens()) * s.bytesPerTok)
					stall := s.cfg.Platform.TransferTime(bytes)
					head.restoreStall += stall
					s.restoredBytes += bytes
					s.restoreStall += stall
				}
			}
			s.emitCache(now, head, g)
		}
		head.kvBytes = need
		s.kvUsed += need
		head.running = true
		s.running = append(s.running, head)
		s.emit(now, EventAdmitted, head)
	}
}

// releaseBlocks drops the request's prefix-cache pins (completion,
// handoff, preemption, kill). The blocks stay resident — that residency
// is the session's next-turn hit — but become evictable.
func (s *contSim) releaseBlocks(r *contRequest) {
	if s.cache != nil && r.pinned > 0 {
		s.cache.Release(r.req.SessionID, r.pinned)
		r.pinned = 0
	}
}

// emitCache reports one admission's cache outcome to the observer:
// a block-hit event when cached blocks served the request, a
// block-evict event when the acquire forced evictions, and a
// block-restore event when host-tier blocks were promoted back.
func (s *contSim) emitCache(now sim.Time, cr *contRequest, g kvcache.Grant) {
	if s.cfg.Observer == nil {
		return
	}
	ev := Event{Time: now, RequestID: cr.req.ID, SessionID: cr.req.SessionID}
	if g.Hits+g.Restored > 0 {
		ev.Type = EventBlockHit
		ev.Detail = blockHitDetail(g)
		s.cfg.Observer(ev)
	}
	if g.Evicted > 0 {
		ev.Type = EventBlockEvict
		ev.Detail = blockEvictDetail(g)
		s.cfg.Observer(ev)
	}
	if g.Restored > 0 {
		ev.Type = EventBlockRestore
		ev.Detail = blockRestoreDetail(g.Restored, float64(g.Restored)*float64(s.cache.BlockTokens())*s.bytesPerTok)
		s.cfg.Observer(ev)
	}
}

// blockHitDetail, blockEvictDetail and blockRestoreDetail build the
// cache events' Detail text with one allocation each, the text
// fmt.Sprintf would give for "hits=%d restored=%d misses=%d
// credit=%d", "evicted=%d spilled=%d host_dropped=%d" and "blocks=%d
// bytes=%.0f".
func blockHitDetail(g kvcache.Grant) string {
	var buf [128]byte
	b := appendCount(buf[:0], "hits=", int64(g.Hits))
	b = appendCount(b, " restored=", int64(g.Restored))
	b = appendCount(b, " misses=", int64(g.Misses))
	return string(appendCount(b, " credit=", g.CreditTokens))
}

func blockEvictDetail(g kvcache.Grant) string {
	var buf [128]byte
	b := appendCount(buf[:0], "evicted=", int64(g.Evicted))
	b = appendCount(b, " spilled=", int64(g.Spilled))
	return string(appendCount(b, " host_dropped=", int64(g.HostEvicted)))
}

func blockRestoreDetail(blocks int, bytes float64) string {
	var buf [128]byte
	b := appendCount(buf[:0], "blocks=", int64(blocks))
	b = append(b, " bytes="...)
	return string(strconv.AppendFloat(b, bytes, 'f', 0, 64))
}

// appendCount appends label and then v in decimal.
func appendCount(b []byte, label string, v int64) []byte {
	return strconv.AppendInt(append(b, label...), v, 10)
}

// nextChunk returns the prompt tokens r prefills in the next iteration:
// the rest of its prompt, capped at PrefillChunk under chunked prefill,
// or 0 once r decodes.
func (s *contSim) nextChunk(r *contRequest) int64 {
	chunk := r.req.PromptLen - r.promptDone
	if chunk <= 0 {
		return 0
	}
	if s.cfg.Policy == ChunkedPrefill && chunk > s.cfg.PrefillChunk {
		return s.cfg.PrefillChunk
	}
	return chunk
}

// preemptForGrowth frees KV for the coming iteration's growth — one
// cache entry per token that will be emitted, including first tokens
// from completing prefills — by evicting the youngest running
// request(s) (recompute-style: progress and KV are discarded, the
// request re-queues at the head of the wait queue). The oldest request
// is never evicted — feasibility guarantees it fits alone, so the
// scheduler always makes progress.
func (s *contSim) preemptForGrowth(now sim.Time) {
	// A request emits a token when it decodes or its chunk ends its
	// prompt. Every term is a whole multiple of bytesPerTok, so growth
	// stays exact as victims' tokens leave it.
	var growth float64
	for _, r := range s.running {
		if r.promptDone+s.nextChunk(r) >= r.req.PromptLen {
			growth += s.bytesPerTok
		}
	}
	for s.kvUsed+growth > s.capacity && len(s.running) > 1 {
		victim := s.running[len(s.running)-1]
		if victim.promptDone+s.nextChunk(victim) >= victim.req.PromptLen {
			growth -= s.bytesPerTok
		}
		s.running = s.running[:len(s.running)-1]
		victim.running = false
		s.kvUsed -= victim.kvBytes
		victim.kvBytes = 0
		victim.promptDone = 0
		victim.generated = 0
		// Unpin the victim's cache blocks and drop any uncharged restore
		// stall; re-admission re-acquires (usually hitting the
		// still-resident blocks, the cache's recompute discount).
		s.releaseBlocks(victim)
		victim.restoreStall = 0
		s.waiting.pushFront(victim)
		s.preemptions++
		s.emit(now, EventPreempted, victim)
	}
}

// kick starts the next iteration if the engine is idle and work exists.
func (s *contSim) kick(now sim.Time) {
	if s.busy || s.err != nil || s.state == StateStopped {
		return
	}
	s.admit(now)
	s.preemptForGrowth(now)
	s.sample(now)
	if len(s.running) == 0 {
		s.maybeFinishDrain(now)
		return
	}

	// Plan the iteration: a prefill chunk for each request still
	// consuming its prompt, one decode token for the rest.
	var dur sim.Time
	decodeBatch := int64(0)
	maxKV := int64(0)
	for _, r := range s.running {
		r.chunk = s.nextChunk(r)
		if r.chunk == 0 {
			decodeBatch++
			if kv := r.kvLen(); kv > maxKV {
				maxKV = kv
			}
			continue
		}
		d, err := s.sm.Prefill(1, r.chunk)
		if err != nil {
			s.err = err
			return
		}
		dur += d
	}
	if decodeBatch > 0 {
		d, err := s.sm.DecodeStep(decodeBatch, maxKV)
		if err != nil {
			s.err = err
			return
		}
		dur += d
	}
	if s.slowFactor > 1 {
		// A slow-node fault: the whole iteration stretches. Durations are
		// int64 nanoseconds well under 2^53, so the float round-trip is
		// exact at factor 1 and deterministic at any factor.
		dur = sim.Time(float64(dur) * s.slowFactor)
	}
	// Pending host-tier restore penalties stall the iteration their
	// request first executes in. Interconnect time, not compute, so the
	// slow-node factor does not scale it.
	var stall sim.Time
	for _, r := range s.running {
		if r.restoreStall > 0 {
			stall += r.restoreStall
			r.restoreStall = 0
		}
	}

	s.busy = true
	s.iterations++
	s.totalBatch += len(s.running)
	s.batch = append(s.batch[:0], s.running...)
	if decodeBatch == int64(len(s.running)) && s.planLeap(now+stall, dur, maxKV) {
		return
	}
	s.cal.Schedule(now+stall+dur, s.finish)
}

// finishIteration applies the in-flight iteration's outcomes at its end
// time: prompt progress, emitted tokens, completions, KV growth.
func (s *contSim) finishIteration(end sim.Time) {
	if s.state == StateStopped {
		// Killed mid-iteration: the batch was already evicted and
		// requeued elsewhere; this iteration's outcomes are discarded.
		// A stopped instance never kicks again, so its reused batch and
		// the requests' chunk fields are never read again.
		return
	}
	if s.lp.ev != (sim.Handle{}) {
		// This finish ends a leap: apply the boundaries before it.
		s.catchUp(end)
		s.lp = leap{}
	}
	s.busy = false
	if s.err != nil {
		return
	}
	for _, r := range s.batch {
		if !r.running {
			continue // defensive: the batch only changes between iterations
		}
		if r.chunk > 0 {
			r.promptDone += r.chunk
			if r.promptDone >= r.req.PromptLen {
				// Prefill complete: the iteration's forward pass emits
				// the first output token.
				s.emitToken(r, end)
			}
			continue
		}
		s.emitToken(r, end)
	}
	s.sample(end)
	s.kick(end)
}

// emitToken records one generated token for r at time end, growing its
// KV reservation and completing the request when it reaches outputLen.
func (s *contSim) emitToken(r *contRequest, end sim.Time) {
	r.generated++
	r.kvBytes += s.bytesPerTok
	s.kvUsed += s.bytesPerTok
	if r.generated > r.delivered {
		r.delivered = r.generated
		s.tokensOut++
	}
	if !r.hasFirst {
		r.hasFirst = true
		r.firstTok = end
		s.ttfts = append(s.ttfts, end-r.req.Arrival)
		if s.cfg.Observer != nil {
			s.cfg.Observer(Event{
				Time: end, Type: EventFirstToken,
				RequestID: r.req.ID, SessionID: r.req.SessionID,
				TTFT: end - r.req.Arrival,
			})
		}
	}
	if r.generated >= r.req.OutputLen {
		s.completed++
		if s.cfg.Observer != nil {
			ev := Event{
				Time: end, Type: EventCompleted,
				RequestID: r.req.ID, SessionID: r.req.SessionID,
				Tokens: r.delivered,
			}
			if r.hasFirst {
				ev.TTFT = r.firstTok - r.req.Arrival
			}
			if r.req.OutputLen > 1 {
				ev.TPOT = (end - r.firstTok) / sim.Time(r.req.OutputLen-1)
			}
			s.cfg.Observer(ev)
		}
		s.e2es = append(s.e2es, end-r.req.Arrival)
		if r.req.OutputLen > 1 {
			s.tpots = append(s.tpots, (end-r.firstTok)/sim.Time(r.req.OutputLen-1))
		}
		s.retire(r, end)
		return
	}
	if s.handoff != nil {
		// Prefill complete on a prefill-only instance: the request stops
		// here. Its KV leaves this instance's budget — the disaggregation
		// layer now owns the cache and prices its transfer to a decode
		// instance.
		s.handedOff++
		s.retire(r, end)
		s.handoff(end, r.handoffRecord())
	}
}

// retire takes r, done here at end, out of the running set: its KV
// leaves the budget and its cache blocks are unpinned.
func (s *contSim) retire(r *contRequest, end sim.Time) {
	s.kvUsed -= r.kvBytes
	r.kvBytes = 0
	s.releaseBlocks(r)
	if end > s.lastCompletion {
		s.lastCompletion = end
	}
	r.running = false
	for i, x := range s.running {
		if x == r {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
}

// sample records the queue-depth and KV-occupancy series and advances
// the time-weighted KV integral. With StateWindow set the per-event
// series are downsampled: levels integrate into the open window and
// each completed window flushes one mean point instead of appending a
// point per scheduling event.
func (s *contSim) sample(now sim.Time) {
	frac := s.kvUsed / s.capacity
	if now > s.lastSampleT {
		// Integrate the previous level over the elapsed interval.
		s.kvIntegral += float64(s.lastKVFrac * float64(now-s.lastSampleT))
		if s.cfg.StateWindow > 0 {
			s.integrateWindows(now)
		}
		s.lastSampleT = now
	}
	if s.cfg.StateWindow <= 0 {
		s.series.add(now, float64(s.waiting.len()), frac)
	}
	s.lastKVFrac = frac
	s.lastQueueN = s.waiting.len()
	if s.waiting.len() > s.maxQueue {
		s.maxQueue = s.waiting.len()
	}
	if s.kvUsed > s.peakKV {
		s.peakKV = s.kvUsed
	}
	if s.cfg.StateWindow > 0 && s.cfg.Observer != nil {
		lookups, hits := int64(0), int64(0)
		if s.cache != nil {
			cs := s.cache.Stats()
			lookups, hits = cs.Lookups, cs.Hits+cs.Restored
		}
		s.cfg.Observer(Event{
			Time: now,
			Type: EventStateSample,
			State: StateSample{
				Queue:        s.waiting.len(),
				Running:      len(s.running),
				KVFrac:       frac,
				CacheLookups: lookups,
				CacheHits:    hits,
			},
		})
	}
}

// integrateWindows carries the held levels from lastSampleT to now,
// flushing one mean point per window boundary crossed.
func (s *contSim) integrateWindows(now sim.Time) {
	w := s.cfg.StateWindow
	t := s.lastSampleT
	for t < now {
		end := s.winStart + w
		if end > now {
			s.winQueue += float64(float64(s.lastQueueN) * float64(now-t))
			s.winKV += float64(s.lastKVFrac * float64(now-t))
			return
		}
		s.winQueue += float64(float64(s.lastQueueN) * float64(end-t))
		s.winKV += float64(s.lastKVFrac * float64(end-t))
		dur := float64(w)
		s.series.add(end, s.winQueue/dur, s.winKV/dur)
		s.winQueue, s.winKV = 0, 0
		s.winStart = end
		t = end
	}
}

// flushWindow closes the open, partial sampling window at the end of
// the run (stats assembly).
func (s *contSim) flushWindow() {
	if s.cfg.StateWindow <= 0 || s.lastSampleT <= s.winStart {
		return
	}
	dur := float64(s.lastSampleT - s.winStart)
	s.series.add(s.lastSampleT, s.winQueue/dur, s.winKV/dur)
	s.winQueue, s.winKV = 0, 0
	s.winStart = s.lastSampleT
}

// cacheStats assembles the prefix-cache ledger; nil when no cache is
// configured, keeping cache-off reports bit-identical.
func (s *contSim) cacheStats() *KVCacheStats {
	if s.cache == nil {
		return nil
	}
	st := &KVCacheStats{
		BlockTokens:     s.cache.BlockTokens(),
		DeviceBlocks:    s.cfg.KVCache.DeviceBlocks,
		HostSpillBlocks: s.cfg.KVCache.HostSpillBlocks,
		Policy:          s.cfg.KVCache.Policy.String(),
		Stats:           s.cache.Stats(),
		RestoredBytes:   s.restoredBytes,
		RestoreStall:    s.restoreStall,
	}
	st.setHitRate()
	return st
}

// stats assembles the final Stats from the accumulators.
func (s *contSim) stats() *Stats {
	s.flushWindow()
	st := &Stats{
		Requests:        s.completed + s.abandoned + s.handedOff + s.killed,
		Completed:       s.completed,
		Abandoned:       s.abandoned,
		HandedOff:       s.handedOff,
		Killed:          s.killed,
		Resumed:         s.resumed,
		Preemptions:     s.preemptions,
		Horizon:         s.lastCompletion,
		Latency:         SummarizeLatency(s.ttfts, s.tpots, s.e2es),
		Batches:         s.iterations,
		KVCapacityBytes: s.capacity,
		PeakKVBytes:     s.peakKV,
		PeakKVFrac:      s.peakKV / s.capacity,
		MaxQueueDepth:   s.maxQueue,
		KVCache:         s.cacheStats(),
	}
	st.QueueDepth, st.KVOccupancy = s.series.split()
	if s.iterations > 0 {
		st.MeanBatch = float64(s.totalBatch) / float64(s.iterations)
	}
	st.TokensOut = s.tokensOut
	if s.lastCompletion > 0 {
		sec := s.lastCompletion.Seconds()
		st.Throughput = float64(s.completed) / sec
		st.TokensPerSec = float64(s.tokensOut) / sec
		st.MeanKVFrac = s.kvIntegral / float64(s.lastCompletion)
	}
	st.SLOAttainment, st.Goodput = SLOGoodput(s.ttfts, s.cfg.TTFTSLO, s.lastCompletion, st.Throughput)
	return st
}
