// Package cuda simulates the CUDA runtime surface the executor needs:
// kernel launches with launch latency, FIFO stream queues, host↔device
// copies over the platform interconnect, device synchronization, and CUDA
// Graph capture/replay (the mechanism behind torch.compile's
// reduce-overhead mode).
//
// Timing semantics (paper Fig. 4): a cudaLaunchKernel call occupies the
// host thread for the platform's launch-CPU time; the kernel may begin
// executing LaunchOverheadNs after the call started — unless earlier
// kernels still occupy the stream, in which case it queues. SKIP later
// measures t_l = tsb(kernel) − tsb(launch) from the trace (Eq. 1), which
// equals the pure launch overhead on an idle stream and grows with
// queuing delay on a saturated one.
package cuda

import (
	"fmt"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

// DefaultStream is the stream PyTorch eager mode uses for compute.
const DefaultStream = 7

// Stream is a FIFO device work queue.
type Stream struct {
	ID       int
	timeline *sim.Timeline
	lastEnd  sim.Time
	kernels  int
}

// KernelCount reports how many kernels have executed on the stream.
func (s *Stream) KernelCount() int { return s.kernels }

// BusyTime reports cumulative kernel execution time on the stream.
func (s *Stream) BusyTime() sim.Time { return s.timeline.BusyTime() }

// FreeAt reports when the stream drains.
func (s *Stream) FreeAt() sim.Time { return s.timeline.FreeAt() }

// Runtime is a simulated CUDA runtime bound to one platform, one host
// thread (the dispatch thread PyTorch eager mode uses), and one trace
// builder.
type Runtime struct {
	Platform *hw.Platform
	CPU      *sim.Clock

	builder *trace.Builder
	streams map[int]*Stream
	tid     int

	launches  int
	capturing *Graph
}

// NewRuntime creates a runtime for the platform, recording into b; a
// nil b records nothing and the runtime only keeps time. tid identifies
// the host dispatch thread in emitted events.
func NewRuntime(p *hw.Platform, b *trace.Builder, tid int) *Runtime {
	return &Runtime{
		Platform: p,
		CPU:      sim.NewClock(0),
		builder:  b,
		streams:  make(map[int]*Stream),
		tid:      tid,
	}
}

// StreamByID returns (creating on first use) the stream with the given id.
func (rt *Runtime) StreamByID(id int) *Stream {
	s, ok := rt.streams[id]
	if !ok {
		s = &Stream{ID: id, timeline: sim.NewTimeline(0)}
		rt.streams[id] = s
	}
	return s
}

// Launches reports how many cudaLaunchKernel calls have been issued.
func (rt *Runtime) Launches() int { return rt.launches }

// LaunchKernel simulates one cudaLaunchKernel call of the named kernel
// with the given cost onto stream id. It occupies the CPU for the launch
// call, enqueues the kernel behind prior stream work, and emits the
// runtime + kernel trace events. It returns the kernel's [start, end).
//
// During graph capture the kernel is recorded instead of executed,
// mirroring cudaStreamBeginCapture semantics.
func (rt *Runtime) LaunchKernel(name string, cost hw.KernelCost, streamID int) (start, end sim.Time) {
	if rt.capturing != nil {
		rt.capturing.nodes = append(rt.capturing.nodes, graphNode{name: name, cost: cost, stream: streamID})
		return rt.CPU.Now(), rt.CPU.Now()
	}

	p := rt.Platform
	callStart := rt.CPU.Now()
	callDur := p.LaunchCPUTime()
	rt.CPU.Advance(callDur)

	corr := rt.builder.NextCorrelation()
	rt.builder.Launch("cudaLaunchKernel", rt.tid, callStart, callDur, corr)

	s := rt.StreamByID(streamID)
	earliest := callStart + sim.FromNs(p.LaunchOverheadNs)
	dur := p.GPU.KernelDuration(cost)
	start, end = s.timeline.Acquire(earliest, dur)
	s.lastEnd = end
	s.kernels++
	rt.launches++

	rt.builder.Kernel(name, streamID, start, dur, corr, cost.FLOPs, cost.Bytes())
	return start, end
}

// MemcpyDir identifies a copy direction.
type MemcpyDir int

const (
	// HostToDevice moves input tensors to the GPU.
	HostToDevice MemcpyDir = iota
	// DeviceToHost moves results back.
	DeviceToHost
)

func (d MemcpyDir) String() string {
	if d == HostToDevice {
		return "Memcpy HtoD"
	}
	return "Memcpy DtoH"
}

// Memcpy simulates cudaMemcpyAsync of n bytes on stream id. On
// tightly-coupled platforms with unified physical memory the copy is
// elided entirely (no event, no time), matching MI300A semantics.
func (rt *Runtime) Memcpy(dir MemcpyDir, bytes float64, streamID int) (start, end sim.Time) {
	p := rt.Platform
	if p.UnifiedPhysicalMemory || bytes <= 0 {
		return rt.CPU.Now(), rt.CPU.Now()
	}
	callStart := rt.CPU.Now()
	callDur := p.LaunchCPUTime()
	rt.CPU.Advance(callDur)

	corr := rt.builder.NextCorrelation()
	rt.builder.Launch("cudaMemcpyAsync", rt.tid, callStart, callDur, corr)

	s := rt.StreamByID(streamID)
	earliest := callStart + sim.FromNs(p.LaunchOverheadNs)
	dur := p.TransferTime(bytes)
	start, end = s.timeline.Acquire(earliest, dur)
	s.lastEnd = end

	rt.builder.Memcpy(dir.String(), streamID, start, dur, corr, bytes)
	return start, end
}

// Synchronize simulates cudaDeviceSynchronize: the host blocks until all
// streams drain. It emits a runtime span covering the wait and returns
// the time at which the host resumes.
func (rt *Runtime) Synchronize() sim.Time {
	callStart := rt.CPU.Now()
	var latest sim.Time
	for _, s := range rt.streams {
		if s.timeline.FreeAt() > latest {
			latest = s.timeline.FreeAt()
		}
	}
	resume := sim.MaxTime(callStart, latest)
	rt.builder.Runtime("cudaDeviceSynchronize", rt.tid, callStart, resume-callStart)
	rt.CPU.AdvanceTo(resume)
	return resume
}

// GPUBusy sums kernel/copy execution time across streams.
func (rt *Runtime) GPUBusy() sim.Time {
	var total sim.Time
	for _, s := range rt.streams {
		total += s.timeline.BusyTime()
	}
	return total
}

// Graph is a captured kernel sequence, replayable with one launch — the
// simulator's CUDA Graph. Device-side dispatch between graph nodes is
// already captured by each kernel's NullKernelNs floor (the same floor
// stream-queued kernels pay), so replay adds no extra inter-kernel gap;
// the whole saving is on the host side.
type Graph struct {
	nodes []graphNode
}

type graphNode struct {
	name   string
	cost   hw.KernelCost
	stream int
}

// Len reports the number of captured kernels.
func (g *Graph) Len() int { return len(g.nodes) }

// KernelNames lists captured kernel names in order.
func (g *Graph) KernelNames() []string {
	names := make([]string, len(g.nodes))
	for i, n := range g.nodes {
		names[i] = n.name
	}
	return names
}

// BeginCapture starts recording launches into a graph. Launches issued
// until EndCapture are captured, not executed.
func (rt *Runtime) BeginCapture() error {
	if rt.capturing != nil {
		return fmt.Errorf("cuda: capture already in progress")
	}
	rt.capturing = &Graph{}
	return nil
}

// EndCapture stops recording and returns the captured graph.
func (rt *Runtime) EndCapture() (*Graph, error) {
	if rt.capturing == nil {
		return nil, fmt.Errorf("cuda: no capture in progress")
	}
	g := rt.capturing
	rt.capturing = nil
	return g, nil
}

// LaunchGraph replays a captured graph with a single cudaGraphLaunch
// call: one host launch, then every node back-to-back on its stream with
// only the replay gap between nodes. Returns the graph's [start, end).
func (rt *Runtime) LaunchGraph(g *Graph, streamID int) (start, end sim.Time) {
	if g.Len() == 0 {
		return rt.CPU.Now(), rt.CPU.Now()
	}
	p := rt.Platform
	callStart := rt.CPU.Now()
	callDur := p.LaunchCPUTime()
	rt.CPU.Advance(callDur)

	corr := rt.builder.NextCorrelation()
	rt.builder.Launch("cudaGraphLaunch", rt.tid, callStart, callDur, corr)

	s := rt.StreamByID(streamID)
	earliest := callStart + sim.FromNs(p.LaunchOverheadNs)

	first := true
	for _, n := range g.nodes {
		dur := p.GPU.KernelDuration(n.cost)
		var kStart, kEnd sim.Time
		if first {
			kStart, kEnd = s.timeline.Acquire(earliest, dur)
			start = kStart
			first = false
		} else {
			kStart, kEnd = s.timeline.Acquire(s.timeline.FreeAt(), dur)
		}
		kcorr := rt.builder.NextCorrelation()
		// Graph-node kernels correlate to the single graph launch via a
		// shared parent correlation recorded in the name; each node still
		// gets its own kernel event. We link them all to the one launch
		// by emitting per-node launches of zero CPU cost at the graph
		// launch call time, which preserves trace validity (one launch
		// per kernel correlation) while charging the host only once.
		rt.builder.Launch("cudaGraphNodeLaunch", rt.tid, callStart+callDur, 0, kcorr)
		rt.builder.Kernel(n.name, streamID, kStart, dur, kcorr, n.cost.FLOPs, n.cost.Bytes())
		s.kernels++
		end = kEnd
	}
	rt.launches++ // one host-visible launch for the whole graph
	s.lastEnd = end
	return start, end
}

// NullKernelResult reports the Table V microbenchmark outcome.
type NullKernelResult struct {
	Platform string
	// LaunchOverheadNs is mean t_l = tsb(kernel) − tsb(launch).
	LaunchOverheadNs float64
	// DurationNs is mean kernel execution duration.
	DurationNs float64
}

// MeasureNullKernel reproduces the paper's §V-A microbenchmark: launch n
// empty kernels on an idle stream, synchronizing after each so no queuing
// occurs, and measure mean launch overhead and duration from the trace.
func MeasureNullKernel(p *hw.Platform, n int) NullKernelResult {
	b := trace.NewBuilder()
	b.Grow(3 * n) // a launch, a kernel and a synchronize each
	rt := NewRuntime(p, b, 1)
	for i := 0; i < n; i++ {
		rt.LaunchKernel("nullKernel", hw.KernelCost{}, DefaultStream)
		rt.Synchronize()
	}
	tr := b.Trace()

	var launchSum, durSum float64
	var kernels int
	launches := make(map[uint64]sim.Time)
	for _, e := range tr.Events {
		if e.Cat == trace.CatRuntime && e.Name == "cudaLaunchKernel" {
			launches[e.Correlation] = e.Ts
		}
	}
	// The built trace is sorted, so its kernels come in start order.
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Cat != trace.CatKernel {
			continue
		}
		if ls, ok := launches[e.Correlation]; ok {
			launchSum += float64(e.Ts - ls)
			durSum += float64(e.Dur)
			kernels++
		}
	}
	if kernels == 0 {
		return NullKernelResult{Platform: p.Name}
	}
	return NullKernelResult{
		Platform:         p.Name,
		LaunchOverheadNs: launchSum / float64(kernels),
		DurationNs:       durSum / float64(kernels),
	}
}
