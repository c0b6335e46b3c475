package ops

import "fmt"

// FuseElementwise merges maximal runs of fusible kernels (pointwise maps
// and layout copies) into single fused kernels, the way torch.compile's
// Triton backend collapses eager pointwise chains. The fused kernel keeps
// the sum of FLOPs but eliminates the intermediate HBM round trips: it
// reads the first kernel's inputs, writes the last kernel's output.
//
// Runs shorter than minRun are left alone (fusing a single kernel is a
// no-op; real compilers also skip trivial regions). The returned slice is
// a fresh allocation; the input is not modified.
func FuseElementwise(kernels []Kernel, minRun int) []Kernel {
	if minRun < 2 {
		minRun = 2
	}
	out := make([]Kernel, 0, len(kernels))
	i := 0
	for i < len(kernels) {
		if !kernels[i].Class.Fusible() {
			out = append(out, kernels[i])
			i++
			continue
		}
		j := i
		for j < len(kernels) && kernels[j].Class.Fusible() {
			j++
		}
		run := kernels[i:j]
		if len(run) < minRun {
			out = append(out, run...)
			i = j
			continue
		}
		fused := Kernel{
			Name:  fmt.Sprintf("triton_fused_pointwise_%d", len(run)),
			Class: ClassElementwise,
		}
		for _, k := range run {
			fused.Cost.FLOPs += k.Cost.FLOPs
		}
		// Memory traffic: boundary tensors only.
		fused.Cost.BytesRead = run[0].Cost.BytesRead
		fused.Cost.BytesWrite = run[len(run)-1].Cost.BytesWrite
		out = append(out, fused)
		i = j
	}
	return out
}
