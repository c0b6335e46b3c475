package serve

import (
	"fmt"
	"sort"

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
	req        Request
	promptLen  int64
	outputLen  int64
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
	// handoff, when set, marks a prefill-only request: the moment its
	// prefill completes (first token emitted), the request leaves this
	// instance — KV released — and the callback receives the handoff
	// state to resume decoding elsewhere (see Instance.AcceptPrefill).
	handoff func(now sim.Time, h Handoff)
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
}

func (r *contRequest) kvLen() int64 { return r.promptLen + r.generated }

type contSim struct {
	cfg         Config
	cal         *sim.Calendar
	sm          *engine.StepModel
	bytesPerTok float64
	capacity    float64

	waiting     []*contRequest
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
	s.kickFn = func(now sim.Time) {
		s.kickPending = false
		s.kick(now)
	}
	s.capacity = cfg.KVCapacityBytes
	if s.capacity <= 0 {
		hbm := float64(cfg.Platform.GPU.HBMGB) * 1e9
		weights := float64(cfg.Model.Params()) * 2 // fp16
		s.capacity = hbm*cfg.KVMemoryUtil - weights
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

// lifetimeKV is the request's peak KV footprint given the config's
// length fallbacks.
func (s *contSim) lifetimeKV(req Request) float64 {
	promptLen, outputLen := req.PromptLen, req.OutputLen
	if promptLen <= 0 {
		promptLen = s.cfg.Seq
	}
	if outputLen <= 0 {
		outputLen = s.cfg.DefaultOutputLen
	}
	return float64(promptLen+outputLen) * s.bytesPerTok
}

// newRequest resolves a request's effective lengths and checks
// feasibility: a request whose lifetime KV footprint exceeds the whole
// budget would preempt-livelock, so it is rejected up front.
func (s *contSim) newRequest(req Request) (*contRequest, error) {
	cr := &contRequest{
		req:       req,
		promptLen: req.PromptLen,
		outputLen: req.OutputLen,
	}
	if cr.promptLen <= 0 {
		cr.promptLen = s.cfg.Seq
	}
	if cr.outputLen <= 0 {
		cr.outputLen = s.cfg.DefaultOutputLen
	}
	if need := s.lifetimeKV(req); need > s.capacity {
		return nil, fmt.Errorf("serve: request %d needs %.2f GB of KV (prompt %d + output %d tokens) but the budget is %.2f GB",
			cr.req.ID, need/1e9, cr.promptLen, cr.outputLen, s.capacity/1e9)
	}
	return cr, nil
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
	s.waiting = append(s.waiting, cr)
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
	for i, w := range s.waiting {
		if w == cr {
			s.waiting = append(s.waiting[:i], s.waiting[i+1:]...)
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
	for len(s.waiting) > 0 && len(s.running) < s.cfg.MaxBatch {
		head := s.waiting[0]
		// A resumed request's transferred cache (prompt + tokens already
		// generated elsewhere) is reserved whole; fresh requests have
		// generated == 0 and reserve the prompt alone. Cached prefix
		// blocks live in the cache's own block pool and leave the
		// byte-denominated reservation.
		credit := int64(0)
		if s.cache != nil {
			credit = s.cache.Peek(head.req.SessionID, head.promptLen)
		}
		need := float64(head.promptLen-credit+head.generated) * s.bytesPerTok
		if s.kvUsed+need > s.capacity {
			return
		}
		s.waiting = s.waiting[1:]
		s.cal.Cancel(head.abandonEv)
		head.abandonEv = sim.Handle{}
		if s.cache != nil && head.req.SessionID != 0 {
			g := s.cache.Acquire(head.req.SessionID, head.promptLen, head.resumed)
			head.pinned = g.Pinned
			need = float64(head.promptLen-int64(g.Pinned)*s.cache.BlockTokens()+head.generated) * s.bytesPerTok
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
					bytes := float64(g.Restored) * float64(s.cache.BlockTokens()) * s.bytesPerTok
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
		ev.Detail = fmt.Sprintf("hits=%d restored=%d misses=%d credit=%d", g.Hits, g.Restored, g.Misses, g.CreditTokens)
		s.cfg.Observer(ev)
	}
	if g.Evicted > 0 {
		ev.Type = EventBlockEvict
		ev.Detail = fmt.Sprintf("evicted=%d spilled=%d host_dropped=%d", g.Evicted, g.Spilled, g.HostEvicted)
		s.cfg.Observer(ev)
	}
	if g.Restored > 0 {
		ev.Type = EventBlockRestore
		ev.Detail = fmt.Sprintf("blocks=%d bytes=%.0f", g.Restored, float64(g.Restored)*float64(s.cache.BlockTokens())*s.bytesPerTok)
		s.cfg.Observer(ev)
	}
}

// willEmitToken reports whether r produces an output token in the next
// iteration: decoding requests always do, and a prefilling request does
// when this iteration's chunk consumes the rest of its prompt.
func (s *contSim) willEmitToken(r *contRequest) bool {
	remaining := r.promptLen - r.promptDone
	if remaining <= 0 {
		return true
	}
	if s.cfg.Policy == ChunkedPrefill && remaining > s.cfg.PrefillChunk {
		return false
	}
	return true
}

// preemptForGrowth frees KV for the coming iteration's growth — one
// cache entry per token that will be emitted, including first tokens
// from completing prefills — by evicting the youngest running
// request(s) (recompute-style: progress and KV are discarded, the
// request re-queues at the head of the wait queue). The oldest request
// is never evicted — feasibility guarantees it fits alone, so the
// scheduler always makes progress.
func (s *contSim) preemptForGrowth(now sim.Time) {
	for {
		var growth float64
		for _, r := range s.running {
			if s.willEmitToken(r) {
				growth += s.bytesPerTok
			}
		}
		if s.kvUsed+growth <= s.capacity || len(s.running) <= 1 {
			return
		}
		victim := s.running[len(s.running)-1]
		s.running = s.running[:len(s.running)-1]
		s.kvUsed -= victim.kvBytes
		victim.kvBytes = 0
		victim.promptDone = 0
		victim.generated = 0
		// Unpin the victim's cache blocks and drop any uncharged restore
		// stall; re-admission re-acquires (usually hitting the
		// still-resident blocks, the cache's recompute discount).
		s.releaseBlocks(victim)
		victim.restoreStall = 0
		s.waiting = append([]*contRequest{victim}, s.waiting...)
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
		r.chunk = 0
		if r.promptDone >= r.promptLen {
			decodeBatch++
			if kv := r.kvLen(); kv > maxKV {
				maxKV = kv
			}
			continue
		}
		r.chunk = r.promptLen - r.promptDone
		if s.cfg.Policy == ChunkedPrefill && r.chunk > s.cfg.PrefillChunk {
			r.chunk = s.cfg.PrefillChunk
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
	for _, r := range s.running {
		if r.restoreStall > 0 {
			dur += r.restoreStall
			r.restoreStall = 0
		}
	}

	s.busy = true
	s.iterations++
	s.totalBatch += len(s.running)
	s.batch = append(s.batch[:0], s.running...)
	s.cal.Schedule(now+dur, s.finish)
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
	s.busy = false
	if s.err != nil {
		return
	}
	for _, r := range s.batch {
		if !s.isRunning(r) {
			continue // preempted while... cannot happen mid-iteration, but stay safe
		}
		if r.chunk > 0 {
			r.promptDone += r.chunk
			if r.promptDone >= r.promptLen {
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
	if r.generated >= r.outputLen {
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
			if r.outputLen > 1 {
				ev.TPOT = (end - r.firstTok) / sim.Time(r.outputLen-1)
			}
			s.cfg.Observer(ev)
		}
		s.e2es = append(s.e2es, end-r.req.Arrival)
		if r.outputLen > 1 {
			s.tpots = append(s.tpots, (end-r.firstTok)/sim.Time(r.outputLen-1))
		}
		s.kvUsed -= r.kvBytes
		r.kvBytes = 0
		s.releaseBlocks(r)
		s.removeRunning(r)
		if end > s.lastCompletion {
			s.lastCompletion = end
		}
		return
	}
	if r.handoff != nil {
		// Prefill complete on a prefill-pool instance: the request stops
		// here. Its KV leaves this instance's budget — the disaggregation
		// layer now owns the cache and prices its transfer to a decode
		// instance.
		s.handedOff++
		s.kvUsed -= r.kvBytes
		r.kvBytes = 0
		s.releaseBlocks(r)
		s.removeRunning(r)
		if end > s.lastCompletion {
			s.lastCompletion = end
		}
		fn := r.handoff
		r.handoff = nil
		fn(end, Handoff{
			Req:        r.req,
			PromptLen:  r.promptLen,
			OutputLen:  r.outputLen,
			Generated:  r.generated,
			FirstToken: r.firstTok,
			KVLen:      r.kvLen(),
		})
	}
}

func (s *contSim) isRunning(r *contRequest) bool {
	for _, x := range s.running {
		if x == r {
			return true
		}
	}
	return false
}

func (s *contSim) removeRunning(r *contRequest) {
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
		s.kvIntegral += s.lastKVFrac * float64(now-s.lastSampleT)
		if s.cfg.StateWindow > 0 {
			s.integrateWindows(now)
		}
		s.lastSampleT = now
	}
	if s.cfg.StateWindow <= 0 {
		s.series.add(now, float64(len(s.waiting)), frac)
	}
	s.lastKVFrac = frac
	s.lastQueueN = len(s.waiting)
	if len(s.waiting) > s.maxQueue {
		s.maxQueue = len(s.waiting)
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
			State: &StateSample{
				Queue:        len(s.waiting),
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
			s.winQueue += float64(s.lastQueueN) * float64(now-t)
			s.winKV += s.lastKVFrac * float64(now-t)
			return
		}
		s.winQueue += float64(s.lastQueueN) * float64(end-t)
		s.winKV += s.lastKVFrac * float64(end-t)
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
	cs := s.cache.Stats()
	st := &KVCacheStats{
		BlockTokens:     s.cache.BlockTokens(),
		DeviceBlocks:    s.cfg.KVCache.DeviceBlocks,
		HostSpillBlocks: s.cfg.KVCache.HostSpillBlocks,
		Policy:          s.cfg.KVCache.Policy.String(),
		Lookups:         cs.Lookups,
		Hits:            cs.Hits,
		Restored:        cs.Restored,
		Misses:          cs.Misses,
		Unallocated:     cs.Unallocated,
		Evictions:       cs.Evictions,
		Spills:          cs.Spills,
		HostEvictions:   cs.HostEvictions,
		ReusedTokens:    cs.ReusedTokens,
		RestoredBytes:   s.restoredBytes,
		RestoreStall:    s.restoreStall,
	}
	if cs.Lookups > 0 {
		st.HitRate = float64(cs.Hits+cs.Restored) / float64(cs.Lookups)
	}
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
		Batches:         s.iterations,
		KVCapacityBytes: s.capacity,
		PeakKVBytes:     s.peakKV,
		PeakKVFrac:      s.peakKV / s.capacity,
		MaxQueueDepth:   s.maxQueue,
		KVCache:         s.cacheStats(),
	}
	st.QueueDepth, st.KVOccupancy = s.series.split()
	sort.Slice(s.ttfts, func(i, j int) bool { return s.ttfts[i] < s.ttfts[j] })
	sort.Slice(s.tpots, func(i, j int) bool { return s.tpots[i] < s.tpots[j] })
	sort.Slice(s.e2es, func(i, j int) bool { return s.e2es[i] < s.e2es[j] })
	st.MeanTTFT = meanTime(s.ttfts)
	st.P50TTFT = percentileSorted(s.ttfts, 50)
	st.P95TTFT = percentileSorted(s.ttfts, 95)
	st.P99TTFT = percentileSorted(s.ttfts, 99)
	st.MaxTTFT = maxTimeOf(s.ttfts)
	st.MeanTPOT = meanTime(s.tpots)
	st.P50TPOT = percentileSorted(s.tpots, 50)
	st.P95TPOT = percentileSorted(s.tpots, 95)
	st.MeanE2E = meanTime(s.e2es)
	st.P50E2E = percentileSorted(s.e2es, 50)
	st.P95E2E = percentileSorted(s.e2es, 95)
	st.MaxE2E = maxTimeOf(s.e2es)
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
