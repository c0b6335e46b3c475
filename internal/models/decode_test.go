package models

import (
	"strings"
	"testing"

	"github.com/skipsim/skip/internal/ops"
)

func TestDecodeStepAllDecoderFamilies(t *testing.T) {
	// Every decoder family must build a valid single-token step:
	// GPT-2 (learned positions, tanh GELU), Llama (RoPE, SiLU gate,
	// GQA), Gemma (RoPE, GELU gate, MQA).
	for _, cfg := range []*Config{GPT2(), Llama32_1B(), Gemma2B(), Mistral7B()} {
		g, err := BuildDecodeStep(cfg, 2, 512, AttnEager)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if g.KernelCount() == 0 {
			t.Errorf("%s: empty decode step", cfg.Name)
		}
		// A decode step launches a similar order of kernels to a prefill
		// layer walk — the same per-layer structure with single-token
		// shapes.
		prefill, err := BuildPrefill(cfg, 2, 512, AttnEager)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(g.KernelCount()) / float64(prefill.KernelCount())
		if ratio < 0.5 || ratio > 1.5 {
			t.Errorf("%s: decode/prefill kernel ratio = %.2f", cfg.Name, ratio)
		}
		// But with far less work per kernel.
		if g.TotalCost().FLOPs >= prefill.TotalCost().FLOPs/10 {
			t.Errorf("%s: decode FLOPs should be tiny next to prefill", cfg.Name)
		}
	}
}

func TestDecodeStepFlash(t *testing.T) {
	eager, err := BuildDecodeStep(Llama32_1B(), 1, 1024, AttnEager)
	if err != nil {
		t.Fatal(err)
	}
	flash, err := BuildDecodeStep(Llama32_1B(), 1, 1024, AttnFlash)
	if err != nil {
		t.Fatal(err)
	}
	if flash.KernelCount() >= eager.KernelCount() {
		t.Errorf("flash decode (%d kernels) should launch fewer than eager (%d)",
			flash.KernelCount(), eager.KernelCount())
	}
	var found bool
	for _, k := range flash.FlattenKernels() {
		if strings.Contains(k.Name, "flash_fwd_splitkv") {
			found = true
			if k.Class != ops.ClassAttention {
				t.Error("split-kv kernel class")
			}
		}
	}
	if !found {
		t.Error("flash decode should use the split-kv kernel")
	}
}

func TestDecodeStepScalesWithKV(t *testing.T) {
	short, _ := BuildDecodeStep(Llama32_1B(), 1, 128, AttnEager)
	long, _ := BuildDecodeStep(Llama32_1B(), 1, 8192, AttnEager)
	// Attention cache streaming grows with kvLen; weight reads dominate
	// but total bytes must strictly grow.
	if long.TotalCost().Bytes() <= short.TotalCost().Bytes() {
		t.Error("decode bytes should grow with KV length")
	}
	// Kernel count is kv-invariant (same op structure).
	if long.KernelCount() != short.KernelCount() {
		t.Errorf("decode kernel count changed with kvLen: %d vs %d",
			short.KernelCount(), long.KernelCount())
	}
}

func TestDecodeStepNamesEncodeRun(t *testing.T) {
	g, _ := BuildDecodeStep(GPT2(), 4, 256, AttnEager)
	for _, part := range []string{"gpt2", "decode", "bs4", "kv256"} {
		if !strings.Contains(g.Name, part) {
			t.Errorf("graph name %q missing %q", g.Name, part)
		}
	}
	// One token per sequence in, one logit row out.
	if g.InputBytes != 4*8 {
		t.Errorf("InputBytes = %g", g.InputBytes)
	}
	if g.OutputBytes != float64(4*50257*2) {
		t.Errorf("OutputBytes = %g", g.OutputBytes)
	}
}

func TestDecodeStepKVAppend(t *testing.T) {
	// The cache-append copies must be present (cat kernels).
	g, _ := BuildDecodeStep(Llama32_1B(), 1, 512, AttnEager)
	cats := 0
	for _, k := range g.FlattenKernels() {
		if strings.Contains(k.Name, "CatArrayBatchedCopy") {
			cats++
		}
	}
	// ≥2 per layer (k and v appends); RoPE adds more cats.
	if cats < int(2*Llama32_1B().Layers) {
		t.Errorf("cat kernels = %d, want ≥ %d", cats, 2*Llama32_1B().Layers)
	}
}

// BenchmarkBuildDecodeStep times building one llama-3.2-1B decode-step
// graph, the graph every decode oracle miss executes.
func BenchmarkBuildDecodeStep(b *testing.B) {
	c := Llama32_1B()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := BuildDecodeStep(c, 8, 512, AttnEager)
		if err != nil {
			b.Fatal(err)
		}
		benchGraph = g
	}
}

// benchGraph keeps the benchmarked build observable to the compiler.
var benchGraph *ops.Graph

// BenchmarkBuildPrefill times building one llama-3.2-1B prefill graph
// (BS 8, seq 512), the graph every prefill oracle miss executes.
func BenchmarkBuildPrefill(b *testing.B) {
	c := Llama32_1B()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := BuildPrefill(c, 8, 512, AttnEager)
		if err != nil {
			b.Fatal(err)
		}
		benchGraph = g
	}
}
