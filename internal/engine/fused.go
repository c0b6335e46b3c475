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
// application model, and records its trace. The plan is mined from the
// graph's own kernel sequence (deterministic chains, greedy
// non-overlapping instances).
func RunFused(req Request, chainLen int, app FusionApplication) (*FusedRunResult, error) {
	return runFused(req, chainLen, app, true)
}

// TimeFused is RunFused without the trace, as Time is Run without it:
// the result's Trace is nil.
func TimeFused(req Request, chainLen int, app FusionApplication) (*FusedRunResult, error) {
	return runFused(req, chainLen, app, false)
}

func runFused(req Request, chainLen int, app FusionApplication, traced bool) (*FusedRunResult, error) {
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
	plan, err := planChains(graph, chainLen)
	if err != nil {
		return nil, err
	}
	l, err := lowerFused(graph, plan, app)
	if err != nil {
		return nil, err
	}
	var b *trace.Builder
	if traced {
		b = trace.NewBuilder()
		b.Meta("platform", req.Platform.Name)
		b.Meta("model", req.Model.Name)
		b.Meta("mode", fmt.Sprintf("ps-fused-L%d-%s", chainLen, app))
	}
	return &FusedRunResult{
		Result:         newExecutor(req.Platform, b).result(req, &l),
		ChainLength:    chainLen,
		FusedInstances: len(plan.starts),
		LaunchesSaved:  len(plan.starts) * (chainLen - 1),
	}, nil
}

// chains is a fusion plan over a graph's kernels in launch order, ks:
// the sorted starts of its non-overlapping chains of l kernels, each of
// which launches as one merged kernel.
type chains struct {
	ks     []ops.Kernel
	starts []int
	l      int
	name   string // the merged kernels' name
}

// planChains mines g's kernel sequence for deterministic chains of
// length l.
func planChains(g *ops.Graph, l int) (*chains, error) {
	starts, err := fusion.InstancePositions(g.KernelNames(), l)
	if err != nil {
		return nil, err
	}
	return &chains{ks: g.FlattenKernels(), starts: starts, l: l, name: fmt.Sprintf("ps_fused_chain_L%d", l)}, nil
}

// launched reports how many kernels the plan launches: one per chain
// and one per kernel outside every chain.
func (ch *chains) launched() int { return len(ch.ks) - len(ch.starts)*(ch.l-1) }

// lowerFused lowers g under the plan. Launch-savings-only keeps the
// eager walk and substitutes kernels; full-region fusion dispatches the
// substituted kernel list under one operator span, each launch paying
// the unfused walk's mean host cost per kernel.
func lowerFused(g *ops.Graph, plan *chains, app FusionApplication) (lowering, error) {
	switch app {
	case LaunchSavingsOnly:
		return lowering{g: g, plan: plan}, nil
	case FullRegionFusion:
		var totalCPU float64
		for _, n := range g.Nodes {
			n.Walk(func(m *ops.Node) { totalCPU += m.CPUNs })
		}
		ks := make([]ops.Kernel, 0, plan.launched())
		cu := cursor{plan: plan}
		for i := range plan.ks {
			if k := cu.at(&plan.ks[i]); k != nil {
				ks = append(ks, *k)
			}
		}
		return lowering{g: g, body: listBody, ks: ks, op: "PSFusedFunction", hostNs: totalCPU / float64(len(plan.ks))}, nil
	}
	return lowering{}, fmt.Errorf("engine: unknown fusion application %v", app)
}

// cursor substitutes a plan's kernels during one walk of its graph,
// visiting the kernels in launch order. A nil cursor substitutes
// nothing.
type cursor struct {
	plan   *chains
	i      int // flat index of the next kernel
	next   int // index in plan.starts of the first chain not yet begun
	merged ops.Kernel
}

// at returns the kernel to launch for k, the walk's next kernel: the
// merged kernel where a chain starts, nil inside a chain (its work
// rides the merged kernel), and k itself elsewhere.
func (cu *cursor) at(k *ops.Kernel) *ops.Kernel {
	if cu == nil {
		return k
	}
	p, i := cu.plan, cu.i
	cu.i++
	if cu.next < len(p.starts) && p.starts[cu.next] == i {
		cu.next++
		cu.merged = ops.Kernel{Name: p.name, Class: k.Class}
		for j := i; j < i+p.l && j < len(p.ks); j++ {
			cu.merged.Cost = cu.merged.Cost.Add(p.ks[j].Cost)
		}
		return &cu.merged
	}
	if cu.next > 0 && i < p.starts[cu.next-1]+p.l {
		return nil
	}
	return k
}
