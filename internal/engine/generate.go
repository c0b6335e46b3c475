package engine

import (
	"fmt"

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
	// Trace covers the full generation (prefill + all decode steps). Like
	// Result.Trace, it is excluded from JSON reports.
	Trace *trace.Trace `json:"-"`
}

// RunGenerate simulates prefill plus newTokens decode iterations in one
// continuous timeline (eager or flash attention; compiled decode is a
// different serving regime the simulator does not model).
func RunGenerate(req Request, newTokens int) (*GenerateResult, error) {
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

	b := trace.NewBuilder()
	b.Meta("platform", req.Platform.Name)
	b.Meta("model", req.Model.Name)
	b.Meta("mode", "generate-"+req.Mode.String())
	ex := newExecutor(req, b)
	rt := ex.rt

	prefill, err := models.BuildPrefill(req.Model, req.Batch, req.Seq, attn)
	if err != nil {
		return nil, err
	}
	ex.runEager(prefill)
	ttftEnd := rt.CPU.Now()
	prefillBusy := rt.GPUBusy()
	prefillKernels := rt.Launches()

	res := &GenerateResult{
		Request:        req,
		NewTokens:      newTokens,
		TTFT:           ttftEnd,
		PrefillKernels: prefillKernels,
		PrefillGPUBusy: prefillBusy,
	}

	for t := 0; t < newTokens; t++ {
		kvLen := req.Seq + int64(t)
		step, err := models.BuildDecodeStep(req.Model, req.Batch, kvLen, attn)
		if err != nil {
			return nil, err
		}
		ex.runEager(step)
	}
	end := rt.CPU.Now()
	res.DecodeTime = end - ttftEnd
	res.Total = end
	res.TPOT = res.DecodeTime / sim.Time(newTokens)
	res.DecodeGPUBusy = rt.GPUBusy() - prefillBusy
	res.DecodeKernelsPerStep = (rt.Launches() - prefillKernels) / newTokens
	res.Trace = b.Trace()
	return res, nil
}
