package cluster

import (
	"fmt"

	"github.com/skipsim/skip/internal/hw"
	"github.com/skipsim/skip/internal/sim"
)

// The KV-transfer cost model. A completed prefill's cache must reach
// its decode instance, and what that costs is exactly the asymmetry the
// paper characterizes: on a coupled platform (GH200's NVLink-C2C at
// 450 GB/s, unified virtual memory) the cache is a pointer handoff away
// from the host, while a discrete PCIe node must stage it GPU → host
// DRAM → wire — a store-and-forward hop per loosely-coupled endpoint.
//
// The model prices a transfer of b bytes from platform S to platform D
// as
//
//	time = (S.IC.LatencyNs + D.IC.LatencyNs) + hop(S)·hop(D)·b/bw
//
// where bw is the slower endpoint's interconnect bandwidth (or an
// explicit override — the knob the ext10 bench sweeps) and hop(P) is
// HostHopMultiplier for a loosely-coupled P, 1 otherwise. Coupled→
// coupled handoffs therefore move at full link rate, while a discrete→
// discrete transfer pays the multiplier twice — once to exfiltrate the
// cache through the source host, once to inject it through the
// destination's.

// DefaultHostHopMultiplier is the store-and-forward penalty per
// loosely-coupled endpoint: the cache crosses the endpoint's PCIe link
// into host DRAM and out again, doubling that endpoint's share of the
// wire time.
const DefaultHostHopMultiplier = 2.0

// TransferModel prices KV-cache movement between instances.
type TransferModel struct {
	// HostHopMultiplier scales the wire time once per loosely-coupled
	// endpoint (0 takes DefaultHostHopMultiplier; 1 disables the
	// penalty).
	HostHopMultiplier float64
	// BandwidthGBps, when positive, overrides both endpoints'
	// interconnect bandwidth — the what-if knob for sweeping the
	// crossover between disaggregated and monolithic serving.
	BandwidthGBps float64
	// OverlapFraction models chunked/layerwise KV shipping: the decode
	// instance starts consuming the cache before the tail arrives, so
	// this fraction of the wire time hides behind decode start. The
	// link stays occupied for the full wire time (the bytes still
	// move); only the request's resume instant advances. 0 — the
	// default — is strict store-and-forward; must stay below 1 (some
	// wire time is always exposed).
	OverlapFraction float64
}

func (tm TransferModel) validate() error {
	if tm.HostHopMultiplier < 0 {
		return fmt.Errorf("cluster: host-hop multiplier must be non-negative, got %g", tm.HostHopMultiplier)
	}
	if tm.BandwidthGBps < 0 {
		return fmt.Errorf("cluster: transfer bandwidth must be non-negative, got %g", tm.BandwidthGBps)
	}
	if tm.OverlapFraction < 0 || tm.OverlapFraction >= 1 {
		return fmt.Errorf("cluster: overlap fraction must be in [0,1), got %g", tm.OverlapFraction)
	}
	return nil
}

// Exposed returns the part of a wire time the request actually waits
// for — the tail not hidden behind decode start. With zero overlap the
// float round-trip multiplies by exactly 1.0, preserving the wire time
// bit for bit.
func (tm TransferModel) Exposed(wire sim.Time) sim.Time {
	if tm.OverlapFraction == 0 {
		return wire
	}
	return sim.Time(float64(wire) * (1 - tm.OverlapFraction))
}

// hop returns the host-hop factor for one endpoint.
func (tm TransferModel) hop(p *hw.Platform) float64 {
	if p.Coupling != hw.LooselyCoupled {
		return 1
	}
	if tm.HostHopMultiplier > 0 {
		return tm.HostHopMultiplier
	}
	return DefaultHostHopMultiplier
}

// Time prices moving bytes of KV cache from src to dst.
func (tm TransferModel) Time(src, dst *hw.Platform, bytes float64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	bw := src.IC.BandwidthGBps
	if dst.IC.BandwidthGBps < bw {
		bw = dst.IC.BandwidthGBps
	}
	if tm.BandwidthGBps > 0 {
		bw = tm.BandwidthGBps
	}
	lat := src.IC.LatencyNs + dst.IC.LatencyNs
	// GB/s == bytes/ns.
	return sim.FromNs(lat + tm.hop(src)*tm.hop(dst)*bytes/bw)
}
