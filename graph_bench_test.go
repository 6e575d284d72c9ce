package approxtuner_test

import (
	"testing"

	"repro/internal/approx"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// BenchmarkResNet18Rungs times one whole-graph execution of ResNet-18 at
// width 0.25 on a batch of 4 uncached inputs (the shape of a served
// request) under three serving rungs: exact, filter sampling at stride 2
// (samp50) and row perforation at stride 2 (perf50) on every convolution.
// The approximate rungs skip the work they approximate away, so their
// ns/op sits below exact's.
func BenchmarkResNet18Rungs(b *testing.B) {
	g := models.ResNet18(1, 0.25).Graph
	g.PrepackWeights() // constant weights are cache-marked, as approxserve marks them
	x := tensor.New(4, 3, 32, 32)
	tensor.NewRNG(2).FillNormal(x, 0, 1)
	rungs := []struct {
		name string
		knob approx.KnobID
	}{
		{"exact", approx.KnobFP32},
		{"samp50", approx.SamplingKnob(2, 0, tensorops.FP32)},
		{"perf50", approx.PerforationKnob(tensorops.PerfRows, 2, 0, tensorops.FP32)},
	}
	classes := g.OpClasses()
	for _, r := range rungs {
		cfg := approx.Config{}
		for i, op := range g.ApproxOps() {
			if classes[i] == approx.OpConv {
				cfg[op] = r.knob
			}
		}
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Execute(x, cfg, graph.ExecOptions{})
			}
		})
	}
}
