package spec

import (
	"fmt"
	"reflect"
	"strings"

	"github.com/skipsim/skip/internal/cluster"
	"github.com/skipsim/skip/internal/engine"
	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/kvcache"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/serve"
)

// errAt prefixes a validation failure with its JSON path, so "which
// field, why" is one string: `spec: workload.rate_per_sec: must be
// positive, got -3`.
func errAt(path, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if path == "" {
		return fmt.Errorf("spec: %s", msg)
	}
	return fmt.Errorf("spec: %s: %s", path, msg)
}

// Validate checks the spec for structural coherence (which sections may
// coexist), resolvable catalog names, and field ranges. Every failure
// names the offending field by its JSON path.
func (s *Spec) Validate() error {
	// Section coherence first: the dispatch rules of Kind.
	switch {
	case s.Run != nil && (s.Serve != nil || s.Fleet != nil || s.Workload != nil):
		return errAt("run", "mutually exclusive with workload/serve/fleet sections")
	case s.Run == nil && s.Serve == nil && s.Fleet == nil:
		return errAt("", "needs a run, serve, or fleet section")
	case s.baseKind() != KindRun && s.Workload == nil:
		return errAt("workload", "required for %s specs", s.baseKind())
	}

	if s.Model == "" {
		return errAt("model", "required")
	}
	if _, err := models.ByName(s.Model); err != nil {
		return errAt("model", "%v", err)
	}
	if s.Mode != "" {
		if _, err := engine.ParseMode(s.Mode); err != nil {
			return errAt("mode", "%v", err)
		}
	}

	// Platform: run and serve specs name one (or load a file); fleet
	// specs name platforms per group instead.
	if s.Fleet != nil {
		if s.Platform != "" || s.PlatformFile != "" {
			return errAt("platform", "fleet specs name platforms per group; drop the top-level platform")
		}
	} else {
		switch {
		case s.Platform != "" && s.PlatformFile != "":
			return errAt("platform", "platform and platform_file are mutually exclusive")
		case s.Platform == "" && s.PlatformFile == "":
			return errAt("platform", "required (or set platform_file)")
		case s.Platform != "":
			if _, err := hw.ByName(s.Platform); err != nil {
				return errAt("platform", "%v", err)
			}
		}
	}

	if s.Run != nil {
		if err := s.Run.validate(); err != nil {
			return err
		}
	}
	if s.Workload != nil {
		if err := s.Workload.validate(); err != nil {
			return err
		}
	}
	if s.Serve != nil {
		if err := s.Serve.validate(s.Fleet != nil); err != nil {
			return err
		}
	}
	if s.Fleet != nil {
		if err := s.Fleet.validate(); err != nil {
			return err
		}
	}

	// Cross-section: the legacy prefill-only policies ignore
	// per-request lengths, so scenario and trace workloads (whose whole
	// point is those lengths) refuse to feed them.
	if s.baseKind() == KindServe && s.Serve != nil && s.Workload != nil {
		policy, _ := serve.ParsePolicy(s.Serve.policyName())
		if policy == serve.StaticBatch || policy == serve.GreedyBatch {
			if s.Workload.Scenario != "" || s.Workload.TraceFile != "" {
				return errAt("serve.policy", "%q is prefill-only and ignores per-request lengths; use a bare arrival workload with it", s.Serve.policyName())
			}
		}
	}

	// Cross-section: the slo-attainment signal is meaningless without a
	// TTFT objective — every sample would count as met and the
	// controller could only ever shrink.
	if s.Fleet != nil && s.Fleet.Autoscale != nil && s.Fleet.Autoscale.signalName() == "slo-attainment" {
		if s.Serve == nil || s.Serve.TTFTSLOMs == 0 {
			return errAt("fleet.autoscale.signal", "the slo-attainment signal needs serve.ttft_slo_ms")
		}
	}

	if s.Observability != nil {
		if err := s.Observability.validate(s); err != nil {
			return err
		}
	}
	if s.Report != nil {
		if err := s.Report.validate(s); err != nil {
			return err
		}
	}

	// The sweep section last: its field path resolves against the
	// now-known-coherent base document.
	if s.Sweep != nil {
		if err := s.Sweep.validate(s); err != nil {
			return err
		}
	}
	return nil
}

func (ob *ObservabilitySpec) validate(s *Spec) error {
	if ob.CounterfactualK < 0 {
		return errAt("observability.counterfactual_k", "must be non-negative, got %d", ob.CounterfactualK)
	}
	if ob.CounterfactualK > 0 && s.Fleet == nil {
		return errAt("observability.counterfactual_k", "routing decision records need a fleet section")
	}
	if tl := ob.Timeline; tl != nil {
		if s.baseKind() == KindRun {
			return errAt("observability.timeline", "windowed timelines need a workload (serve or fleet spec)")
		}
		if tl.IntervalMs <= 0 {
			return errAt("observability.timeline.interval_ms", "must be positive, got %g", tl.IntervalMs)
		}
		// The legacy prefill-only policies emit no events, so there is
		// nothing to window.
		if s.baseKind() == KindServe && s.Serve != nil {
			if policy, _ := serve.ParsePolicy(s.Serve.policyName()); policy == serve.StaticBatch || policy == serve.GreedyBatch {
				return errAt("observability.timeline", "the %q policy emits no events; timelines need a continuous policy", s.Serve.policyName())
			}
		}
	}
	return nil
}

// validate checks the report section: every metric path must type-check
// against the report shape the spec's base kind produces, and series
// names must be unique. Presence (a nil Chaos section, an index past the
// instance count) is a property of the finished report and surfaces at
// extraction time with the offending path named.
func (r *ReportSpec) validate(s *Spec) error {
	if len(r.Metrics) == 0 {
		return errAt("report.metrics", "needs at least one metric")
	}
	seen := make(map[string]bool)
	for i, m := range r.Metrics {
		path := fmt.Sprintf("report.metrics[%d]", i)
		if m.Path == "" {
			return errAt(path+".path", "required")
		}
		if err := checkMetricPath(s.baseKind(), m.Path); err != nil {
			return errAt(path+".path", "%v", err)
		}
		name := m.name()
		if seen[name] {
			return errAt(path+".name", "duplicate metric name %q", name)
		}
		seen[name] = true
	}
	return nil
}

// validate checks the sweep section against the base document: the
// field path must resolve to a present numeric or string leaf, exactly
// one of the values / range forms must be given, and every point must
// be assignable to the leaf (integer leaves reject fractional range
// points rather than silently rounding).
func (sw *SweepSpec) validate(s *Spec) error {
	if sw.Field == "" {
		return errAt("sweep.field", "required")
	}
	// The sweep cannot sweep itself: each point's document drops the
	// sweep section, so a path rooted there would validate against the
	// base and then fail every point with a misleading error.
	if sw.Field == "sweep" || strings.HasPrefix(sw.Field, "sweep.") || strings.HasPrefix(sw.Field, "sweep[") {
		return errAt("sweep.field", "cannot sweep the sweep section itself")
	}
	// The report section is extracted once over the assembled series (a
	// point document drops it), so a path rooted there has nothing to
	// substitute into.
	if sw.Field == "report" || strings.HasPrefix(sw.Field, "report.") || strings.HasPrefix(sw.Field, "report[") {
		return errAt("sweep.field", "cannot sweep the report section; metrics are extracted per point already")
	}
	leaf, err := resolveField(s, sw.Field)
	if err != nil {
		return errAt("sweep.field", "%v", err)
	}
	switch {
	case len(sw.Values) == 0 && !sw.rangeForm():
		return errAt("sweep", "needs a values list or a from/to/steps range")
	case len(sw.Values) > 0 && sw.rangeForm():
		return errAt("sweep.values", "mutually exclusive with the from/to/steps range form")
	}
	if len(sw.Values) > 0 {
		for i, v := range sw.Values {
			if err := checkAssignable(leaf, v); err != nil {
				return errAt(fmt.Sprintf("sweep.values[%d]", i), "%v", err)
			}
		}
		return nil
	}
	if leaf.Kind() == reflect.String {
		return errAt("sweep.field", "%q is a string leaf; the range form needs a numeric one — list values explicitly", sw.Field)
	}
	switch {
	case sw.Steps < 2:
		return errAt("sweep.steps", "must be at least 2, got %d", sw.Steps)
	case sw.Steps > maxSweepSteps:
		return errAt("sweep.steps", "must be at most %d, got %d", maxSweepSteps, sw.Steps)
	case sw.Scale != "" && sw.Scale != "linear" && sw.Scale != "log":
		return errAt("sweep.scale", "unknown scale %q (have linear|log)", sw.Scale)
	case sw.Scale == "log" && (sw.From <= 0 || sw.To <= 0):
		return errAt("sweep.from", "log scale needs positive from and to, got %g..%g", sw.From, sw.To)
	}
	for i, v := range sw.points() {
		if err := checkAssignable(leaf, v); err != nil {
			return errAt("sweep.steps", "range point %d: %v", i, err)
		}
	}
	return nil
}

func (r *RunSpec) validate() error {
	switch {
	case r.Batch <= 0:
		return errAt("run.batch", "must be positive, got %d", r.Batch)
	case r.Seq <= 0:
		return errAt("run.seq", "must be positive, got %d", r.Seq)
	case r.NewTokens < 0:
		return errAt("run.new_tokens", "must be non-negative, got %d", r.NewTokens)
	}
	return nil
}

func (w *WorkloadSpec) validate() error {
	if w.TraceFile != "" {
		// A trace is the complete stream: generator knobs contradict it.
		switch {
		case w.Scenario != "":
			return errAt("workload.trace_file", "mutually exclusive with scenario")
		case w.Arrival != "" || w.Requests != 0 || w.RatePerSec != 0 || w.IntervalMs != 0:
			return errAt("workload.trace_file", "the trace defines arrivals; drop arrival/requests/rate_per_sec/interval_ms")
		case w.Prompt != nil || w.Output != nil:
			return errAt("workload.trace_file", "the trace defines lengths; drop prompt/output")
		case w.Seed != 0:
			return errAt("workload.seed", "a replayed trace has no randomness; drop the seed")
		}
		return nil
	}

	if w.Requests <= 0 {
		return errAt("workload.requests", "must be positive, got %d", w.Requests)
	}
	if w.Scenario != "" {
		if _, err := serve.ParseScenario(w.Scenario); err != nil {
			return errAt("workload.scenario", "%v", err)
		}
		if w.Arrival != "" && w.Arrival != "poisson" {
			return errAt("workload.arrival", "scenario generators use poisson arrivals, got %q", w.Arrival)
		}
		if w.RatePerSec <= 0 {
			return errAt("workload.rate_per_sec", "must be positive, got %g", w.RatePerSec)
		}
		if w.IntervalMs != 0 {
			return errAt("workload.interval_ms", "scenario generators use rate_per_sec, not interval_ms")
		}
		if w.Prompt != nil {
			if err := w.Prompt.validate("workload.prompt"); err != nil {
				return err
			}
		}
		if w.Output != nil {
			if err := w.Output.validate("workload.output"); err != nil {
				return err
			}
		}
		if (w.Turns != 0 || w.ContextGrowth != 0) && w.Scenario != "agentic" {
			return errAt("workload.turns", "agentic knobs need scenario \"agentic\", got %q", w.Scenario)
		}
		if w.Turns < 0 {
			return errAt("workload.turns", "must be non-negative, got %d", w.Turns)
		}
		if w.ContextGrowth < 0 {
			return errAt("workload.context_growth", "must be non-negative, got %d", w.ContextGrowth)
		}
		return nil
	}

	// Bare arrival process: lengths come from the serve config.
	if w.Prompt != nil || w.Output != nil {
		return errAt("workload.prompt", "length distributions need a scenario; bare arrivals use the serve config's lengths")
	}
	if w.Turns != 0 || w.ContextGrowth != 0 {
		return errAt("workload.turns", "agentic knobs need scenario \"agentic\"")
	}
	switch w.Arrival {
	case "", "poisson":
		if w.RatePerSec <= 0 {
			return errAt("workload.rate_per_sec", "must be positive, got %g", w.RatePerSec)
		}
		if w.IntervalMs != 0 {
			return errAt("workload.interval_ms", "poisson arrivals use rate_per_sec, not interval_ms")
		}
	case "uniform":
		if w.IntervalMs <= 0 {
			return errAt("workload.interval_ms", "must be positive, got %g", w.IntervalMs)
		}
		if w.RatePerSec != 0 {
			return errAt("workload.rate_per_sec", "uniform arrivals use interval_ms, not rate_per_sec")
		}
		if w.Seed != 0 {
			return errAt("workload.seed", "uniform arrivals are deterministic; drop the seed")
		}
	default:
		return errAt("workload.arrival", "unknown arrival process %q (have poisson|uniform)", w.Arrival)
	}
	return nil
}

func (d *LengthDistSpec) validate(path string) error {
	switch {
	case d.Mean <= 0:
		return errAt(path+".mean", "must be positive, got %g", d.Mean)
	case d.Sigma < 0:
		return errAt(path+".sigma", "must be non-negative, got %g", d.Sigma)
	case d.Min < 0:
		return errAt(path+".min", "must be non-negative, got %d", d.Min)
	case d.Max < 0:
		return errAt(path+".max", "must be non-negative, got %d", d.Max)
	case d.Max > 0 && d.Max < d.Min:
		return errAt(path+".max", "must be ≥ min (%d), got %d", d.Min, d.Max)
	}
	return nil
}

// policyName is the serve policy with its default applied.
func (v *ServeSpec) policyName() string {
	if v.Policy == "" {
		return "continuous"
	}
	return v.Policy
}

func (v *ServeSpec) validate(inFleet bool) error {
	policy, err := serve.ParsePolicy(v.policyName())
	if err != nil {
		return errAt("serve.policy", "%v", err)
	}
	if inFleet && policy != serve.ContinuousBatch && policy != serve.ChunkedPrefill {
		return errAt("serve.policy", "fleet instances need a continuous policy, got %q", v.policyName())
	}
	switch {
	case v.MaxBatch < 0:
		return errAt("serve.max_batch", "must be non-negative, got %d", v.MaxBatch)
	case v.BatchSize < 0:
		return errAt("serve.batch_size", "must be non-negative, got %d", v.BatchSize)
	case v.MaxWaitMs < 0:
		return errAt("serve.max_wait_ms", "must be non-negative, got %g", v.MaxWaitMs)
	case v.Seq < 0:
		return errAt("serve.seq", "must be non-negative, got %d", v.Seq)
	case v.DefaultOutputTokens < 0:
		return errAt("serve.default_output_tokens", "must be non-negative, got %d", v.DefaultOutputTokens)
	case v.PrefillChunk < 0:
		return errAt("serve.prefill_chunk", "must be non-negative, got %d", v.PrefillChunk)
	case v.KVMemoryUtil < 0 || v.KVMemoryUtil > 1:
		return errAt("serve.kv_memory_util", "must be in [0,1], got %g", v.KVMemoryUtil)
	case v.KVCapacityBytes < 0:
		return errAt("serve.kv_capacity_bytes", "must be non-negative, got %g", v.KVCapacityBytes)
	case v.TTFTSLOMs < 0:
		return errAt("serve.ttft_slo_ms", "must be non-negative, got %g", v.TTFTSLOMs)
	case v.AbandonAfterMs < 0:
		return errAt("serve.abandon_after_ms", "must be non-negative, got %g", v.AbandonAfterMs)
	case v.LatencyBucket < 0:
		return errAt("serve.latency_bucket", "must be non-negative, got %d", v.LatencyBucket)
	}
	return nil
}

// routerName is the fleet router with its default applied.
func (f *FleetSpec) routerName() string {
	if f.Router == "" {
		return "least-queue"
	}
	return f.Router
}

func (f *FleetSpec) validate() error {
	if len(f.Groups) == 0 {
		return errAt("fleet.groups", "needs at least one group")
	}
	seen := make(map[string]bool)
	var prefillable, decodable int
	for i, g := range f.Groups {
		path := fmt.Sprintf("fleet.groups[%d]", i)
		if g.Platform == "" {
			return errAt(path+".platform", "required")
		}
		p, err := hw.ByName(g.Platform)
		if err != nil {
			return errAt(path+".platform", "%v", err)
		}
		if g.Count <= 0 {
			return errAt(path+".count", "must be positive, got %d", g.Count)
		}
		role, err := cluster.ParseRole(g.Role)
		if err != nil {
			return errAt(path+".role", "%v", err)
		}
		if g.Role != "" && f.Disaggregation == nil {
			return errAt(path+".role", "group roles need a fleet.disaggregation section")
		}
		if role != cluster.RolePrefill {
			decodable += g.Count
		}
		if role != cluster.RoleDecode {
			prefillable += g.Count
		}
		// A disaggregated fleet may field the same platform once per
		// role; a monolithic fleet may not repeat a platform at all.
		key := p.Name
		if f.Disaggregation != nil {
			key += "/" + role.String()
			if seen[key] {
				return errAt(path+".platform", "%q appears twice in role %q; merge the counts into one group", p.Name, role)
			}
		} else if seen[key] {
			return errAt(path+".platform", "%q appears twice; merge the counts into one group", p.Name)
		}
		seen[key] = true
	}
	if _, err := cluster.ParsePolicy(f.routerName()); err != nil {
		return errAt("fleet.router", "%v", err)
	}
	switch {
	case f.ShortPrompt < 0:
		return errAt("fleet.short_prompt", "must be non-negative, got %d", f.ShortPrompt)
	case f.AdmitRatePerSec < 0:
		return errAt("fleet.admit_rate_per_sec", "must be non-negative, got %g", f.AdmitRatePerSec)
	case f.AdmitBurst < 0:
		return errAt("fleet.admit_burst", "must be non-negative, got %g", f.AdmitBurst)
	}
	if d := f.Disaggregation; d != nil {
		if f.Router != "" {
			return errAt("fleet.router", "disaggregated fleets route per pool; use disaggregation.prefill_router / decode_router")
		}
		if prefillable == 0 {
			return errAt("fleet.disaggregation", "fleet has no prefill-capable (role prefill or both) instances")
		}
		if decodable == 0 {
			return errAt("fleet.disaggregation", "fleet has no decode-capable (role decode or both) instances")
		}
		if _, err := cluster.ParsePolicy(d.prefillRouterName()); err != nil {
			return errAt("fleet.disaggregation.prefill_router", "%v", err)
		}
		if _, err := cluster.ParsePolicy(d.decodeRouterName()); err != nil {
			return errAt("fleet.disaggregation.decode_router", "%v", err)
		}
		if d.HostHopMultiplier < 0 {
			return errAt("fleet.disaggregation.host_hop_multiplier", "must be non-negative, got %g", d.HostHopMultiplier)
		}
		if d.BandwidthGBps < 0 {
			return errAt("fleet.disaggregation.bandwidth_gbps", "must be non-negative, got %g", d.BandwidthGBps)
		}
		if d.OverlapFraction < 0 || d.OverlapFraction >= 1 {
			return errAt("fleet.disaggregation.overlap_fraction", "must be in [0,1), got %g", d.OverlapFraction)
		}
	}
	if f.Autoscale != nil {
		if err := f.Autoscale.validate(f.Disaggregation != nil); err != nil {
			return err
		}
	}
	if f.Faults != nil {
		if err := f.Faults.validate(f.Disaggregation != nil); err != nil {
			return err
		}
	}
	if k := f.KVCache; k != nil {
		if k.BlockTokens < 0 {
			return errAt("fleet.kv_cache.block_tokens", "must be non-negative, got %d", k.BlockTokens)
		}
		if k.DeviceBlocks <= 0 {
			return errAt("fleet.kv_cache.device_blocks", "must be positive, got %d", k.DeviceBlocks)
		}
		if k.HostSpillBlocks < 0 {
			return errAt("fleet.kv_cache.host_spill_blocks", "must be non-negative, got %d", k.HostSpillBlocks)
		}
		if _, err := kvcache.ParsePolicy(k.policyName()); err != nil {
			return errAt("fleet.kv_cache.policy", "%v", err)
		}
	}
	return nil
}

// policyName is the cache eviction policy with its default applied.
func (k *KVCacheSpec) policyName() string {
	if k.Policy == "" {
		return "lru"
	}
	return k.Policy
}

// signalName is the autoscale signal with its default applied.
func (a *AutoscaleSpec) signalName() string {
	if a.Signal == "" {
		return "queue-depth"
	}
	return a.Signal
}

// roleName is the scaled pool with its default applied.
func (a *AutoscaleSpec) roleName() string {
	if a.Role == "" {
		return "decode"
	}
	return a.Role
}

func (a *AutoscaleSpec) validate(disaggregated bool) error {
	if a.Platform == "" {
		return errAt("fleet.autoscale.platform", "required")
	}
	if _, err := hw.ByName(a.Platform); err != nil {
		return errAt("fleet.autoscale.platform", "%v", err)
	}
	signal, err := cluster.ParseScaleSignal(a.signalName())
	if err != nil {
		return errAt("fleet.autoscale.signal", "%v", err)
	}
	if signal == cluster.SignalTransferQueue && !disaggregated {
		return errAt("fleet.autoscale.signal", "the transfer-queue signal needs a fleet.disaggregation section")
	}
	switch {
	case a.Target <= 0:
		return errAt("fleet.autoscale.target", "must be positive, got %g", a.Target)
	case signal == cluster.SignalSLOAttainment && a.Target > 1:
		return errAt("fleet.autoscale.target", "slo-attainment targets are fractions in (0,1], got %g", a.Target)
	case a.Max <= 0:
		return errAt("fleet.autoscale.max", "must be positive, got %d", a.Max)
	case a.Min < 0 || a.Min > a.Max:
		return errAt("fleet.autoscale.min", "must be in [0, max %d], got %d", a.Max, a.Min)
	case a.IntervalMs < 0:
		return errAt("fleet.autoscale.interval_ms", "must be non-negative, got %g", a.IntervalMs)
	case a.CooldownMs < 0:
		return errAt("fleet.autoscale.cooldown_ms", "must be non-negative, got %g", a.CooldownMs)
	case a.SpinUpDelayMs < 0:
		return errAt("fleet.autoscale.spin_up_delay_ms", "must be non-negative, got %g", a.SpinUpDelayMs)
	case a.SLOWindow < 0:
		return errAt("fleet.autoscale.slo_window", "must be non-negative, got %d", a.SLOWindow)
	}
	if !disaggregated && a.Role != "" {
		return errAt("fleet.autoscale.role", "scaled-pool roles need a fleet.disaggregation section")
	}
	if _, err := cluster.ParseRole(a.roleName()); err != nil {
		return errAt("fleet.autoscale.role", "%v", err)
	}
	return nil
}

func (fc *FaultsSpec) validate(disaggregated bool) error {
	if fc.CrashRatePerSec < 0 {
		return errAt("fleet.faults.crash_rate_per_sec", "must be non-negative, got %g", fc.CrashRatePerSec)
	}
	if len(fc.Schedule) == 0 && fc.CrashRatePerSec == 0 {
		return errAt("fleet.faults", "needs a schedule or a positive crash_rate_per_sec")
	}
	for i, ft := range fc.Schedule {
		path := fmt.Sprintf("fleet.faults.schedule[%d]", i)
		if ft.AtMs < 0 {
			return errAt(path+".at_ms", "must be non-negative, got %g", ft.AtMs)
		}
		kind, err := cluster.ParseFaultKind(ft.Kind)
		if err != nil {
			return errAt(path+".kind", "%v", err)
		}
		if ft.Instance < 0 {
			return errAt(path+".instance", "must be non-negative, got %d", ft.Instance)
		}
		switch kind {
		case cluster.FaultCrash:
			if ft.Factor != 0 || ft.Dst != 0 {
				return errAt(path+".kind", "crash faults take no factor or dst")
			}
		case cluster.FaultSlowNode:
			if ft.Dst != 0 {
				return errAt(path+".dst", "slow-node faults take no dst")
			}
			if ft.Factor < 1 {
				return errAt(path+".factor", "must be ≥ 1, got %g", ft.Factor)
			}
		case cluster.FaultLinkDegrade:
			if !disaggregated {
				return errAt(path+".kind", "link faults need a fleet.disaggregation section")
			}
			if ft.Dst < 0 {
				return errAt(path+".dst", "must be non-negative, got %d", ft.Dst)
			}
			if ft.Factor < 1 {
				return errAt(path+".factor", "must be ≥ 1, got %g", ft.Factor)
			}
		}
	}
	return nil
}

// prefillRouterName / decodeRouterName apply the per-pool router
// defaults.
func (d *DisaggregationSpec) prefillRouterName() string {
	if d.PrefillRouter == "" {
		return "least-queue"
	}
	return d.PrefillRouter
}

func (d *DisaggregationSpec) decodeRouterName() string {
	if d.DecodeRouter == "" {
		return "least-kv"
	}
	return d.DecodeRouter
}
