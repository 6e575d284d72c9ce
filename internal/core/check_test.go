package core

import (
	"strings"
	"testing"

	"repro/internal/approx"
	"repro/internal/device"
	"repro/internal/pareto"
	"repro/internal/tensorops"
)

func errsContain(errs []error, substr string) bool {
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return true
		}
	}
	return false
}

func TestCheckKnobRegistryClean(t *testing.T) {
	errs := CheckKnobRegistry(device.NewTX2GPU(), device.NewTX2CPU())
	if len(errs) != 0 {
		t.Fatalf("registry should validate clean, got: %v", errs)
	}
}

func TestCheckKnobsRejectsBadParameters(t *testing.T) {
	cases := []struct {
		name string
		knob approx.Knob
		want string
	}{
		{"stride", approx.Knob{ID: 200, Kind: approx.KindSampling, Stride: 9}, "stride 9"},
		{"offset", approx.Knob{ID: 201, Kind: approx.KindPerforation, Stride: 2, Offset: 5}, "offset 5"},
		{"ratio", approx.Knob{ID: 202, Kind: approx.KindReduceSampling, RatioNum: 3, RatioDen: 2}, "proper fraction"},
		{"level", approx.Knob{ID: 203, Kind: approx.KindPromise, Level: 9}, "voltage level 9"},
		{"kind", approx.Knob{ID: 204, Kind: approx.Kind(99)}, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := CheckKnobs([]approx.Knob{tc.knob}, nil)
			if !errsContain(errs, tc.want) {
				t.Fatalf("crafted knob not rejected (want %q): %v", tc.want, errs)
			}
		})
	}
}

func TestCheckKnobsRejectsDuplicates(t *testing.T) {
	k := approx.MustLookup(approx.KnobFP32)
	errs := CheckKnobs([]approx.Knob{k, k}, nil)
	if !errsContain(errs, "duplicate") {
		t.Fatalf("duplicate knob id not rejected: %v", errs)
	}
}

func TestCheckKnobsDeviceSupport(t *testing.T) {
	fp16 := approx.MustLookup(approx.KnobFP16)
	// The TX2 CPU has no FP16 pipeline; alone it cannot run the knob.
	errs := CheckKnobs([]approx.Knob{fp16}, []*device.Device{device.NewTX2CPU()})
	if !errsContain(errs, "no device") {
		t.Fatalf("unsupported FP16 knob not rejected on CPU-only fleet: %v", errs)
	}
	// Adding the GPU makes it supported.
	errs = CheckKnobs([]approx.Knob{fp16}, []*device.Device{device.NewTX2CPU(), device.NewTX2GPU()})
	if len(errs) != 0 {
		t.Fatalf("FP16 knob should be supported with a GPU present: %v", errs)
	}
}

func TestCheckKnobsIncompleteSet(t *testing.T) {
	// A crafted "registry" whose sampling knob carries an impossible
	// ratio: Factors() divides by RatioNum, so the performance factor is
	// not finite — the completeness check must catch it.
	bad := approx.Knob{ID: 300, Kind: approx.KindReduceSampling, Prec: tensorops.FP32, RatioNum: 0, RatioDen: 2}
	errs := CheckKnobs([]approx.Knob{bad}, nil)
	if len(errs) == 0 {
		t.Fatal("knob with zero sampling numerator validated clean")
	}
}

func TestCheckCurve(t *testing.T) {
	mk := func(qos, perf float64) pareto.Point {
		return pareto.Point{QoS: qos, Perf: perf, Config: approx.Config{1: approx.KnobFP16}}
	}

	t.Run("clean", func(t *testing.T) {
		c := &pareto.Curve{Program: "p", Points: []pareto.Point{mk(90, 1.0), mk(85, 1.5), mk(80, 2.0)}}
		if errs := CheckCurve(c, true); len(errs) != 0 {
			t.Fatalf("clean curve rejected: %v", errs)
		}
	})
	t.Run("empty", func(t *testing.T) {
		c := &pareto.Curve{Program: "p"}
		if errs := CheckCurve(c, false); !errsContain(errs, "no points") {
			t.Fatalf("empty curve not rejected: %v", errs)
		}
	})
	t.Run("unsorted", func(t *testing.T) {
		c := &pareto.Curve{Program: "p", Points: []pareto.Point{mk(85, 2.0), mk(90, 1.0)}}
		if errs := CheckCurve(c, false); !errsContain(errs, "not sorted") {
			t.Fatalf("unsorted curve not rejected: %v", errs)
		}
	})
	t.Run("non-positive perf", func(t *testing.T) {
		c := &pareto.Curve{Program: "p", Points: []pareto.Point{mk(80, -3), mk(90, 0), mk(85, 1.5)}}
		errs := CheckCurve(c, false)
		if len(errs) != 2 || !errsContain(errs, "non-positive Perf") {
			t.Fatalf("Perf -3 and 0 not both rejected: %v", errs)
		}
	})
	t.Run("unknown knob", func(t *testing.T) {
		c := &pareto.Curve{Program: "p", Points: []pareto.Point{
			{QoS: 90, Perf: 1, Config: approx.Config{0: approx.KnobID(999)}},
		}}
		if errs := CheckCurve(c, false); !errsContain(errs, "unregistered knob") {
			t.Fatalf("unknown knob in config not rejected: %v", errs)
		}
	})
	t.Run("dominated strict", func(t *testing.T) {
		// (80, 1.0) is strictly dominated by (90, 1.5).
		c := &pareto.Curve{Program: "p", Points: []pareto.Point{mk(80, 1.0), mk(90, 1.5)}}
		if errs := CheckCurve(c, true); !errsContain(errs, "dominated") {
			t.Fatalf("dominated point not rejected in strict mode: %v", errs)
		}
	})
	t.Run("dominated relaxed", func(t *testing.T) {
		// Relaxed mode keeps predicted-dominated points (dev curves).
		c := &pareto.Curve{Program: "p", Points: []pareto.Point{mk(80, 1.0), mk(90, 1.5)}}
		if errs := CheckCurve(c, false); len(errs) != 0 {
			t.Fatalf("relaxed mode should accept dominated points: %v", errs)
		}
	})
}
