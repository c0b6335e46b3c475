// Package hw models the hardware of CPU-GPU coupled platforms: CPUs,
// GPUs, interconnects, and the coupling paradigm (loosely, closely, or
// tightly coupled, Fig. 1 of the paper). It also houses the kernel
// duration cost model — a saturating roofline over peak FP16 throughput
// and HBM bandwidth — and the catalog of the three evaluation platforms
// from Table IV, anchored to the paper's Table V microbenchmarks.
package hw

import (
	"fmt"

	"github.com/skipsim/skip/internal/sim"
)

// Coupling classifies the CPU-GPU integration paradigm (paper Fig. 1).
type Coupling int

const (
	// LooselyCoupled: discrete PUs over PCIe, separate memory pools.
	LooselyCoupled Coupling = iota
	// CloselyCoupled: same board, high-speed chip-to-chip link, unified
	// virtual memory over NUMA domains (e.g. GH200 with NVLink-C2C).
	CloselyCoupled
	// TightlyCoupled: same package, physically unified memory
	// (e.g. MI300A).
	TightlyCoupled
)

// String returns the paper's abbreviation for the coupling class.
func (c Coupling) String() string {
	switch c {
	case LooselyCoupled:
		return "LC"
	case CloselyCoupled:
		return "CC"
	case TightlyCoupled:
		return "TC"
	default:
		return fmt.Sprintf("Coupling(%d)", int(c))
	}
}

// CPUSpec describes the host processor.
//
// SingleThreadScore is the workload-effective single-thread performance of
// the CPU running the PyTorch dispatch loop, relative to the Intel Xeon
// Platinum 8468V (= 1.0). It divides every CPU-side cost (operator
// dispatch, launch-call execution). The paper attributes GH200's high
// low-batch latency to "the single-thread performance of the Grace CPU
// ... relative to the CPUs on LC systems" and/or software-stack maturity;
// the scores below are calibrated so BS=1 TTFT ratios match Fig. 10a
// (GH200 ≈ 2.8× Intel+H100, ≈ 1.9× AMD+A100 for Bert-Base).
type CPUSpec struct {
	Name              string
	Arch              string // "x86_64" or "aarch64"
	Cores             int
	Sockets           int
	MemGB             int
	MemType           string
	SingleThreadScore float64
}

// GPUSpec describes the accelerator.
type GPUSpec struct {
	Name string
	// PeakFP16TFLOPS is dense FP16 tensor-core throughput. The paper
	// treats the H100 PCIe and the GH200's H100 as compute-equivalent
	// ("the compute capabilities of the H100 and the GPU portion of the
	// GH200 are equivalent"), differing in memory bandwidth.
	PeakFP16TFLOPS float64
	// HBMGBps is peak memory bandwidth in GB/s.
	HBMGBps float64
	// HBMGB is memory capacity.
	HBMGB int
	// NullKernelNs is the measured duration of an empty kernel (paper
	// Table V), modeling fixed per-kernel execution overhead: scheduling
	// a grid, instruction fetch, and retirement.
	NullKernelNs float64
	// ComputeEff is the achievable fraction of peak FP16 throughput for
	// well-shaped dense kernels (MFU ceiling; ~0.4-0.5 for cuBLAS-class
	// GEMMs on transformer shapes).
	ComputeEff float64
	// MemoryEff is the achievable fraction of peak HBM bandwidth for
	// streaming kernels.
	MemoryEff float64
	// ComputeSatFLOPs is the FLOP count at which a kernel reaches half
	// of its achievable compute throughput (saturating-efficiency knee,
	// see KernelDuration).
	ComputeSatFLOPs float64
	// MemorySatBytes is the byte volume at which a kernel reaches half
	// of its achievable memory bandwidth.
	MemorySatBytes float64
	// RowSatRows is the GEMM row count (batch×rows of the output) at
	// which a matrix kernel reaches half of its achievable compute
	// throughput. Models occupancy/wave quantization: small-batch GEMMs
	// cannot fill the SM array, the effect that keeps low-batch
	// inference launch-dominated and makes batching pay.
	RowSatRows float64
}

// Interconnect describes the CPU↔GPU link.
type Interconnect struct {
	Name string
	// BandwidthGBps is per-direction bandwidth in GB/s.
	BandwidthGBps float64
	// LatencyNs is the one-way transfer initiation latency.
	LatencyNs float64
}

// KernelCost describes the resource demand of one GPU kernel, the input
// to the duration cost model.
type KernelCost struct {
	FLOPs      float64 // floating-point operations
	BytesRead  float64 // bytes read from HBM
	BytesWrite float64 // bytes written to HBM
	// Rows is the output-row parallelism of a matrix kernel (batch×m).
	// Zero means fully parallel (elementwise kernels): no occupancy
	// penalty.
	Rows float64
}

// Add accumulates another cost (used by fusion passes, which merge kernel
// bodies).
func (k KernelCost) Add(o KernelCost) KernelCost {
	sum := KernelCost{
		FLOPs:      k.FLOPs + o.FLOPs,
		BytesRead:  k.BytesRead + o.BytesRead,
		BytesWrite: k.BytesWrite + o.BytesWrite,
		Rows:       k.Rows,
	}
	if o.Rows > 0 && (sum.Rows == 0 || o.Rows < sum.Rows) {
		sum.Rows = o.Rows // fused kernel is gated by its narrowest member
	}
	return sum
}

// Bytes returns total HBM traffic.
func (k KernelCost) Bytes() float64 { return k.BytesRead + k.BytesWrite }

// Scale multiplies every component by f (used to model fusion savings in
// memory round-trips).
func (k KernelCost) Scale(f float64) KernelCost {
	return KernelCost{FLOPs: k.FLOPs * f, BytesRead: k.BytesRead * f, BytesWrite: k.BytesWrite * f, Rows: k.Rows}
}

// minOccupancy floors the row-occupancy penalty in KernelDuration.
const minOccupancy = 0.1

// KernelDuration returns the execution time of a kernel with cost c on
// this GPU. The model is a roofline — the kernel is limited by whichever
// of compute or memory takes longer — with two refinements:
//
//  1. A fixed floor of NullKernelNs, the measured empty-kernel duration
//     (Table V): even a kernel that does nothing occupies the GPU.
//  2. Saturating efficiency: small kernels cannot fill the machine, so
//     effective throughput ramps as work/(work+sat). This is what makes
//     low-batch kernels overhead-dominated and large-batch kernels
//     approach peak — the mechanism behind the CPU-bound→GPU-bound
//     transition the paper characterizes.
func (g *GPUSpec) KernelDuration(c KernelCost) sim.Time {
	var computeNs, memNs float64
	if c.FLOPs > 0 {
		sat := c.FLOPs / (c.FLOPs + g.ComputeSatFLOPs)
		occ := 1.0
		if c.Rows > 0 && g.RowSatRows > 0 {
			occ = c.Rows / (c.Rows + g.RowSatRows)
			// Tiny GEMMs are latency-bound, not occupancy-starved to
			// zero: a single thread block still streams through the
			// machine at a bounded fraction of peak.
			if occ < minOccupancy {
				occ = minOccupancy
			}
		}
		// TFLOPS = 1e12 FLOP/s = 1e3 FLOP/ns.
		computeNs = c.FLOPs / (g.PeakFP16TFLOPS * 1e3 * g.effCompute() * sat * occ)
	}
	if b := c.Bytes(); b > 0 {
		sat := b / (b + g.MemorySatBytes)
		// GB/s = bytes/ns.
		memNs = b / (g.HBMGBps * g.effMemory() * sat)
	}
	body := computeNs
	if memNs > body {
		body = memNs
	}
	return sim.FromNs(g.NullKernelNs + body)
}

// effCompute returns the MFU ceiling, defaulting to 1 when unset so bare
// GPUSpec literals in tests behave as ideal machines.
func (g *GPUSpec) effCompute() float64 {
	if g.ComputeEff <= 0 || g.ComputeEff > 1 {
		return 1
	}
	return g.ComputeEff
}

func (g *GPUSpec) effMemory() float64 {
	if g.MemoryEff <= 0 || g.MemoryEff > 1 {
		return 1
	}
	return g.MemoryEff
}

// Platform is a complete CPU-GPU coupled evaluation system (Table IV).
type Platform struct {
	Name     string
	Coupling Coupling
	CPU      CPUSpec
	GPU      GPUSpec
	IC       Interconnect
	// UnifiedVirtualMemory: CC/TC platforms expose one virtual address
	// space (NVLink-C2C NUMA domains on GH200; physically unified HBM on
	// MI300A), eliminating explicit duplication copies.
	UnifiedVirtualMemory bool
	// UnifiedPhysicalMemory: TC only — no H2D traffic at all.
	UnifiedPhysicalMemory bool
	// LaunchOverheadNs is the measured null-kernel launch overhead
	// (Table V): time from the start of the cudaLaunchKernel call to the
	// start of kernel execution on an idle stream. It bundles CPU launch
	// call time, driver overhead, and link traversal.
	LaunchOverheadNs float64
	// LaunchCPUFraction is the share of LaunchOverheadNs during which
	// the CPU itself is occupied executing the launch call (the rest is
	// driver/link propagation that overlaps with the CPU moving on).
	LaunchCPUFraction float64
	// PowerW is the module's rated power (reported, not modeled).
	PowerW int
}

// LaunchCPUTime is how long a cudaLaunchKernel call occupies the host
// thread. This — together with per-operator framework time — sets the
// maximum rate at which a single CPU thread can feed the GPU, the
// quantity that bounds CPU-bound workloads.
func (p *Platform) LaunchCPUTime() sim.Time {
	return sim.FromNs(p.LaunchOverheadNs * p.LaunchCPUFraction)
}

// CPUTime scales a baseline CPU cost (calibrated on the Intel reference)
// by this platform's single-thread performance.
func (p *Platform) CPUTime(baseNs float64) sim.Time {
	if p.CPU.SingleThreadScore <= 0 {
		return sim.FromNs(baseNs)
	}
	return sim.FromNs(baseNs / p.CPU.SingleThreadScore)
}

// TransferTime returns the time to move n bytes across the CPU↔GPU link.
// Tightly-coupled platforms share physical memory: transfers are free.
func (p *Platform) TransferTime(bytes float64) sim.Time {
	if p.UnifiedPhysicalMemory || bytes <= 0 {
		return 0
	}
	return sim.FromNs(p.IC.LatencyNs + bytes/p.IC.BandwidthGBps)
}

// Validate checks the platform for parameter sanity.
func (p *Platform) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("hw: platform has no name")
	case p.CPU.SingleThreadScore <= 0:
		return fmt.Errorf("hw: %s: CPU SingleThreadScore must be positive", p.Name)
	case p.GPU.PeakFP16TFLOPS <= 0 || p.GPU.HBMGBps <= 0:
		return fmt.Errorf("hw: %s: GPU peaks must be positive", p.Name)
	case p.GPU.NullKernelNs < 0 || p.LaunchOverheadNs <= 0:
		return fmt.Errorf("hw: %s: kernel/launch overheads must be non-negative/positive", p.Name)
	case p.LaunchCPUFraction <= 0 || p.LaunchCPUFraction > 1:
		return fmt.Errorf("hw: %s: LaunchCPUFraction must be in (0,1]", p.Name)
	case p.IC.BandwidthGBps <= 0 && !p.UnifiedPhysicalMemory:
		return fmt.Errorf("hw: %s: interconnect bandwidth must be positive", p.Name)
	}
	return nil
}

func (p *Platform) String() string {
	return fmt.Sprintf("%s (%s: %s + %s over %s)", p.Name, p.Coupling, p.CPU.Name, p.GPU.Name, p.IC.Name)
}
