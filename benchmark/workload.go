package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"

	"github.com/skipsim/skip/internal/bench"
	"github.com/skipsim/skip/internal/spec"
)

//go:embed workloads/*.json
var workloadFiles embed.FS

// workloadNames lists the workloads in presentation order. Every name
// but "paper" is a fleet spec replayed through spec.Simulate.
var workloadNames = []string{"chat8", "chat80", "agentic_cache", "disagg_chaos", "paper"}

// quickDivisor shrinks every fleet workload's request count under
// -quick, the scale the package tests run at.
const quickDivisor = 20

// referenceWorkload supplies the fleet-layer probe inputs for "paper",
// which runs no fleet of its own.
const referenceWorkload = "chat8"

// referenceKVCache is the cache the kvcache probe replays a workload's
// request stream through when the workload itself configures none: the
// agentic_cache dimensions.
var referenceKVCache = spec.KVCacheSpec{BlockTokens: 32, DeviceBlocks: 128, HostSpillBlocks: 2048, Policy: "lru"}

// streamStride separates the request streams one run replays (see
// load).
const streamStride = 1_000_003

// inputs selects one workload instance: the workload, the run's seed
// (when seeded), the stream, and the scale.
type inputs struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seeded   bool   `json:"seeded"`
	Stream   int    `json:"stream,omitempty"`
	Quick    bool   `json:"quick"`
}

// workload is one loaded benchmark input: a validated fleet spec, or
// the paper artifact list.
type workload struct {
	name      string
	spec      *spec.Spec
	artifacts []string
}

func (w *workload) paper() bool { return w.spec == nil }

// paperFile is the paper workload document.
type paperFile struct {
	Artifacts []string `json:"artifacts"`
}

// load reads, seeds, scales and validates the workload in. Stream 0
// keeps the spec's own seeds, so its digest can be recorded. Stream
// k ≥ 1 replaces workload.seed and, when the fleet injects faults,
// fleet.faults.seed with the run's seed (when seeded), then adds
// k·streamStride. "paper" has no randomness and ignores both.
func load(in inputs) (*workload, error) {
	data, err := workloadFiles.ReadFile("workloads/" + in.Workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", in.Workload, workloadNames)
	}
	if in.Workload == "paper" {
		var pf paperFile
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&pf); err != nil {
			return nil, fmt.Errorf("workload paper: %w", err)
		}
		if len(pf.Artifacts) == 0 {
			return nil, fmt.Errorf("workload paper: no artifacts")
		}
		for _, id := range pf.Artifacts {
			if _, err := bench.ByID(id); err != nil {
				return nil, fmt.Errorf("workload paper: %w", err)
			}
		}
		return &workload{name: in.Workload, artifacts: pf.Artifacts}, nil
	}
	s, err := spec.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", in.Workload, err)
	}
	if s.Workload == nil || s.Fleet == nil {
		return nil, fmt.Errorf("workload %s: needs workload and fleet sections", in.Workload)
	}
	if in.Stream > 0 {
		offset := int64(in.Stream) * streamStride
		if in.Seeded {
			s.Workload.Seed = in.Seed
		}
		s.Workload.Seed += offset
		if f := s.Fleet.Faults; f != nil {
			if in.Seeded {
				f.Seed = in.Seed
			}
			f.Seed += offset
		}
	}
	if in.Quick {
		s.Workload.Requests = max(s.Workload.Requests/quickDivisor, 1)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", in.Workload, err)
	}
	return &workload{name: in.Workload, spec: s}, nil
}

// instances is the fleet's initial instance count.
func (w *workload) instances() int {
	n := 0
	for _, g := range w.spec.Fleet.Groups {
		n += g.Count
	}
	return n
}
