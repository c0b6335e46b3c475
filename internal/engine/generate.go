package engine

import (
	"fmt"

	"github.com/skipsim/skip/internal/core"
	"github.com/skipsim/skip/internal/models"
	"github.com/skipsim/skip/internal/sim"
	"github.com/skipsim/skip/internal/trace"
)

// GenerateResult reports an autoregressive generation run: a prefill
// over the prompt followed by newTokens decode steps against a growing
// KV cache. The paper's §II-A framing — prefill pressures compute,
// decode pressures the memory subsystem — is directly observable in the
// per-phase metrics.
type GenerateResult struct {
	Request   Request
	NewTokens int
	// TTFT is the prefill latency (time to first token).
	TTFT sim.Time
	// DecodeTime is the summed latency of all decode steps.
	DecodeTime sim.Time
	// Total is TTFT + DecodeTime.
	Total sim.Time
	// TPOT is the mean time per output token over the decode steps.
	TPOT sim.Time
	// PrefillKernels / DecodeKernelsPerStep count launches per phase.
	PrefillKernels, DecodeKernelsPerStep int
	// PrefillGPUBusy / DecodeGPUBusy split device time by phase.
	PrefillGPUBusy, DecodeGPUBusy sim.Time
	// Trace covers the full generation (prefill + all decode steps); nil
	// from TimeGenerate. Like Result.Trace, it is excluded from JSON
	// reports.
	Trace *trace.Trace `json:"-"`
	// Metrics are SKIP's metrics over the full generation, as
	// Result.Metrics are over one run; excluded from JSON reports.
	Metrics core.Metrics `json:"-"`
}

// RunGenerate simulates prefill plus newTokens decode iterations in one
// continuous timeline (eager or flash attention; compiled decode is a
// different serving regime the simulator does not model), and records
// its trace.
func RunGenerate(req Request, newTokens int) (*GenerateResult, error) {
	return generate(req, newTokens, true)
}

// TimeGenerate is RunGenerate without the trace, as Time is Run without
// it: the result's Trace is nil.
func TimeGenerate(req Request, newTokens int) (*GenerateResult, error) {
	return generate(req, newTokens, false)
}

func generate(req Request, newTokens int, traced bool) (*GenerateResult, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	if req.Model.Kind != models.Decoder {
		return nil, fmt.Errorf("engine: generation requires a decoder-only model")
	}
	if newTokens < 1 {
		return nil, fmt.Errorf("engine: newTokens must be ≥ 1, got %d", newTokens)
	}
	if req.Mode != Eager && req.Mode != Flash {
		return nil, fmt.Errorf("engine: generation supports eager and flash modes, got %v", req.Mode)
	}
	attn := req.Mode.attention()
	prefill, err := models.BuildPrefill(req.Model, req.Batch, req.Seq, attn)
	if err != nil {
		return nil, err
	}
	step, err := models.BuildDecodeStep(req.Model, req.Batch, req.Seq, attn)
	if err != nil {
		return nil, err
	}

	var b *trace.Builder
	if traced {
		b = trace.NewBuilder()
		b.Meta("platform", req.Platform.Name)
		b.Meta("model", req.Model.Name)
		b.Meta("mode", "generate-"+req.Mode.String())
		// Every decode step has the first one's operators and kernels;
		// only attention's costs depend on the KV length.
		b.Grow((&lowering{g: prefill}).events(req.Platform) + newTokens*(&lowering{g: step}).events(req.Platform))
	}
	ex := newExecutor(req.Platform, b)
	ex.run(&lowering{g: prefill})
	res := &GenerateResult{
		Request:        req,
		NewTokens:      newTokens,
		TTFT:           ex.c,
		PrefillKernels: ex.launches,
		PrefillGPUBusy: ex.gpuBusy,
	}

	for t := 0; t < newTokens; t++ {
		if t > 0 {
			if step, err = models.BuildDecodeStep(req.Model, req.Batch, req.Seq+int64(t), attn); err != nil {
				return nil, err
			}
		}
		ex.run(&lowering{g: step})
	}
	res.DecodeTime = ex.c - res.TTFT
	res.Total = ex.c
	res.TPOT = res.DecodeTime / sim.Time(newTokens)
	res.DecodeGPUBusy = ex.gpuBusy - res.PrefillGPUBusy
	res.DecodeKernelsPerStep = (ex.launches - res.PrefillKernels) / newTokens
	res.Trace = b.Trace()
	res.Metrics = ex.metrics()
	return res, nil
}
