package engine

import (
	"fmt"

	"github.com/skipsim/skip/internal/fusion"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/ops"
	"github.com/skipsim/skip/internal/trace"
)

// FusionApplication selects how a proximity-score fusion plan is applied
// — the prototype the paper defers to future work.
type FusionApplication int

const (
	// LaunchSavingsOnly fuses launches but leaves the framework's
	// operator walk untouched: the host still interprets every ATen op;
	// only the cudaLaunchKernel calls for fused chains collapse into
	// one. This is the strictly conservative reading of the paper's
	// accounting ("solely through reduced kernel launch counts").
	LaunchSavingsOnly FusionApplication = iota
	// FullRegionFusion replaces each fused chain's operator region with
	// a single compiled dispatch, the way a generated Triton kernel
	// would: one host dispatch + one launch per chain. This is the
	// assumption under which Eq. 8's ideal speedup is reachable.
	FullRegionFusion
)

func (f FusionApplication) String() string {
	if f == FullRegionFusion {
		return "full-region"
	}
	return "launch-savings-only"
}

// FusedRunResult reports an applied-fusion execution.
type FusedRunResult struct {
	Result *Result
	// ChainLength is the applied plan's L.
	ChainLength int
	// FusedInstances is the number of chain instances collapsed.
	FusedInstances int
	// LaunchesSaved is FusedInstances·(L−1).
	LaunchesSaved int
}

// RunFused executes the request's eager graph with a proximity-score
// fusion plan of the given chain length applied, under the chosen
// application model. The plan is mined from the graph's own kernel
// sequence (deterministic chains, greedy non-overlapping instances).
func RunFused(req Request, chainLen int, app FusionApplication) (*FusedRunResult, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	if req.Mode != Eager {
		return nil, fmt.Errorf("engine: fusion plans apply to eager mode, got %v", req.Mode)
	}
	graph, err := models.BuildPrefill(req.Model, req.Batch, req.Seq, models.AttnEager)
	if err != nil {
		return nil, err
	}
	kernels := graph.FlattenKernels()
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.Name
	}
	positions, err := fusion.InstancePositions(names, chainLen)
	if err != nil {
		return nil, err
	}
	fusedStart := make(map[int]bool, len(positions))
	for _, p := range positions {
		fusedStart[p] = true
	}

	b := trace.NewBuilder()
	b.Meta("platform", req.Platform.Name)
	b.Meta("model", req.Model.Name)
	b.Meta("mode", fmt.Sprintf("ps-fused-L%d-%s", chainLen, app))
	ex := newExecutor(req, b)
	rt := ex.rt

	switch app {
	case LaunchSavingsOnly:
		ex.runEagerWithPlan(graph, kernels, fusedStart, chainLen)
	case FullRegionFusion:
		ex.runFullRegionFused(graph, kernels, fusedStart, chainLen)
	default:
		return nil, fmt.Errorf("engine: unknown fusion application %v", app)
	}

	tr := b.Trace()
	start, end := tr.Span()
	res := &Result{
		Request:      req,
		Trace:        tr,
		TTFT:         end - start,
		HostLaunches: rt.Launches(),
		KernelCount:  len(tr.Kernels()),
		GPUBusy:      rt.GPUBusy(),
		CPUBusy:      ex.cpuBusy,
	}
	res.GPUIdle = res.TTFT - res.GPUBusy
	res.CPUIdle = res.TTFT - res.CPUBusy
	return &FusedRunResult{
		Result:         res,
		ChainLength:    chainLen,
		FusedInstances: len(positions),
		LaunchesSaved:  len(positions) * (chainLen - 1),
	}, nil
}

// runEagerWithPlan is the conservative application: the operator walk is
// unchanged; kernels whose flat index starts a fused chain launch the
// merged kernel, interior kernels are skipped (their cost was merged).
func (ex *executor) runEagerWithPlan(g *ops.Graph, kernels []ops.Kernel, fusedStart map[int]bool, l int) {
	merged := mergeChains(kernels, fusedStart, l)
	ex.transferInputs(g)
	idx := 0
	var walk func(n *ops.Node)
	walk = func(n *ops.Node) {
		start := ex.rt.CPU.Now()
		ex.advanceCPU(n.CPUNs)
		for _, c := range n.Children {
			walk(c)
		}
		for range n.Kernels {
			switch mk, ok := merged[idx]; {
			case ok:
				ex.launch(mk)
			case insideChain(idx, fusedStart, l):
				// Interior of a fused chain: the work rides the merged
				// kernel; no launch.
			default:
				ex.launch(kernels[idx])
			}
			idx++
		}
		end := ex.rt.CPU.Now()
		ex.builder.Operator(n.Name, mainThreadTID, start, end-start)
	}
	for _, n := range g.Nodes {
		walk(n)
	}
	ex.rt.Synchronize()
	ex.transferOutputs(g)
}

// runFullRegionFused is the aggressive application: fused regions cost a
// single compiled dispatch + launch; unfused kernels keep a full eager
// dispatch cost approximated by the graph's mean per-kernel host cost.
func (ex *executor) runFullRegionFused(g *ops.Graph, kernels []ops.Kernel, fusedStart map[int]bool, l int) {
	merged := mergeChains(kernels, fusedStart, l)
	// Mean host cost per kernel of the unfused walk: total node CPU over
	// kernel count.
	var totalCPU float64
	for _, n := range g.Nodes {
		n.Walk(func(m *ops.Node) { totalCPU += m.CPUNs })
	}
	perKernel := totalCPU / float64(len(kernels))

	ex.transferInputs(g)
	start := ex.rt.CPU.Now()
	for idx := 0; idx < len(kernels); idx++ {
		mk, isStart := merged[idx]
		if !isStart {
			if insideChain(idx, fusedStart, l) {
				continue
			}
			ex.advanceCPU(perKernel)
			ex.launch(kernels[idx])
			continue
		}
		ex.advanceCPU(perKernel) // one dispatch for the whole region
		ex.launch(mk)
	}
	end := ex.rt.CPU.Now()
	ex.builder.Operator("PSFusedFunction", mainThreadTID, start, end-start)
	ex.rt.Synchronize()
	ex.transferOutputs(g)
}

// mergeChains builds the merged kernel for every fused start index.
func mergeChains(kernels []ops.Kernel, fusedStart map[int]bool, l int) map[int]ops.Kernel {
	merged := make(map[int]ops.Kernel, len(fusedStart))
	for p := range fusedStart {
		mk := ops.Kernel{
			Name:  fmt.Sprintf("ps_fused_chain_L%d", l),
			Class: kernels[p].Class,
		}
		for i := p; i < p+l && i < len(kernels); i++ {
			mk.Cost = mk.Cost.Add(kernels[i].Cost)
		}
		merged[p] = mk
	}
	return merged
}

// insideChain reports whether idx falls in the interior of a fused chain.
func insideChain(idx int, fusedStart map[int]bool, l int) bool {
	for p := idx - l + 1; p < idx; p++ {
		if p >= 0 && fusedStart[p] {
			return true
		}
	}
	return false
}
