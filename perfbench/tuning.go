package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	approxtuner "repro"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/predictor"
	"repro/internal/qos"
	"repro/internal/tensor"
)

// tracedProgram is the traced run's delegating core.Program: it times and
// counts every execution and score the tuner asks for. Embedding the
// GraphProgram keeps its Prepacker, Sharder, TracedRunner and
// SuffixRunner capabilities, so profiling still takes the suffix path.
type tracedProgram struct {
	*core.GraphProgram
	rec  *recorder
	tune *span // the core:tune span in progress; set between tunes only

	mu         sync.Mutex
	suffixRuns int
	suffixTime time.Duration
	fullRuns   int
	runTime    time.Duration
	scoreTime  time.Duration
	runStarts  []int64 // recorder time of each full run's start
}

// begin zeroes the counts and parents the next spans on tune; a nil
// tune ends the tuning run and keeps the counts.
func (p *tracedProgram) begin(tune *span) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tune = tune
	if tune != nil {
		p.suffixRuns, p.suffixTime, p.fullRuns, p.runTime, p.scoreTime = 0, 0, 0, 0, 0
		p.runStarts = p.runStarts[:0]
	}
}

func (p *tracedProgram) full(sp *span, start int64) {
	d := sp.end()
	p.mu.Lock()
	p.fullRuns++
	p.runTime += d
	p.runStarts = append(p.runStarts, start)
	p.mu.Unlock()
}

func (p *tracedProgram) suffix(sp *span) {
	d := sp.end()
	p.mu.Lock()
	p.suffixRuns++
	p.suffixTime += d
	p.mu.Unlock()
}

func (p *tracedProgram) Run(cfg approx.Config, set core.InputSet, rng *tensor.RNG) *tensor.Tensor {
	sp, t := p.rec.child(p.tune, "core:run"), p.rec.now()
	defer p.full(sp, t)
	return p.GraphProgram.Run(cfg, set, rng)
}

func (p *tracedProgram) RunTraced(cfg approx.Config, set core.InputSet, rng *tensor.RNG, parent *obs.Span) *tensor.Tensor {
	sp, t := p.rec.child(p.tune, "core:run"), p.rec.now()
	defer p.full(sp, t)
	return p.GraphProgram.RunTraced(cfg, set, rng, parent)
}

func (p *tracedProgram) RunSuffix(op int, knob approx.KnobID, set core.InputSet, rng *tensor.RNG) *tensor.Tensor {
	sp := p.rec.child(p.tune, "core:suffix")
	defer p.suffix(sp)
	return p.GraphProgram.RunSuffix(op, knob, set, rng)
}

func (p *tracedProgram) RunSuffixTraced(op int, knob approx.KnobID, set core.InputSet, rng *tensor.RNG, parent *obs.Span) *tensor.Tensor {
	sp := p.rec.child(p.tune, "core:suffix")
	defer p.suffix(sp)
	return p.GraphProgram.RunSuffixTraced(op, knob, set, rng, parent)
}

func (p *tracedProgram) Score(set core.InputSet, out *tensor.Tensor) float64 {
	sp := p.rec.child(p.tune, "core:score")
	v := p.GraphProgram.Score(set, out)
	d := sp.end()
	p.mu.Lock()
	p.scoreTime += d
	p.mu.Unlock()
	return v
}

// permuted returns the dataset's images and labels in a seeded order.
// Accuracy does not depend on order, so every seed must ship the same
// curve; a tuner whose result depends on input order fails the check.
func permuted(d *datasets.Dataset, seed int64) *datasets.Dataset {
	n := d.N()
	per := d.Images.Elems() / n
	perm := tensor.NewRNG(seed).Perm(n)
	data := make([]float32, 0, d.Images.Elems())
	labels := make([]int, n)
	for i, j := range perm {
		data = append(data, d.Images.Data()[j*per:(j+1)*per]...)
		labels[i] = d.Labels[j]
	}
	return &datasets.Dataset{Name: d.Name, Images: tensor.FromSlice(data, d.Images.Shape().Dims()...), Labels: labels, Classes: d.Classes}
}

// buildApp is tune-dev's set-up: build the zoo model and its inputs and
// the App, which measures the baseline QoS. With a recorder the App wraps
// a tracedProgram.
func buildApp(w workload, seed int64, rec *recorder) (*approxtuner.App, *tracedProgram, error) {
	b, err := models.Build(w.Benchmark, models.Scale{Images: w.Images, Width: w.Width, Seed: w.ModelSeed})
	if err != nil {
		return nil, nil, err
	}
	calib, test := b.Dataset.Split()
	calib, test = permuted(calib, seed), permuted(test, seed+1)
	if rec == nil {
		app, err := approxtuner.NewCNNApp(b.Model.Graph, calib.Images, calib.Labels, test.Images, test.Labels)
		return app, nil, err
	}
	gp, err := core.NewGraphProgram(b.Model.Graph, calib.Images, test.Images,
		qos.Accuracy{Labels: calib.Labels}, qos.Accuracy{Labels: test.Labels})
	if err != nil {
		return nil, nil, err
	}
	gp.CalibMetricFor = func(lo, hi int) qos.Metric { return qos.Accuracy{Labels: calib.Labels[lo:hi]} }
	tp := &tracedProgram{GraphProgram: gp, rec: rec}
	app, err := approxtuner.NewApp(tp)
	return app, tp, err
}

// tuneOnce runs one development-time tuning. Untraced it goes through
// App.TuneDevelopmentTime; traced it calls core.PredictiveTune with the
// same options plus a timed PerfModel around the Eq. 3 predictor, so the
// search's own time can be told from the model's. The curve check below
// holds both paths to the same curve.
func tuneOnce(w workload, app *approxtuner.App, tp *tracedProgram, rec *recorder, n int, l map[string][]float64) (*core.Result, error) {
	if tp == nil {
		return app.TuneDevelopmentTime(approxtuner.TuneSpec{MaxQoSLoss: w.MaxQoSLoss, Seed: w.ModelSeed})
	}
	root := rec.start("core:tune", n)
	tp.begin(root)
	pp := predictor.NewPerfPredictor(tp.Costs())
	var modelTime time.Duration
	var lastModel int64
	res, err := core.PredictiveTune(tp, core.Options{
		QoSMin: app.BaselineQoS - w.MaxQoSLoss,
		Policy: core.KnobPolicy{AllowFP16: true},
		Seed:   w.ModelSeed,
		PerfModel: func(cfg approx.Config) float64 {
			sp := rec.child(root, "core:perf_model")
			v := pp.Predict(cfg)
			modelTime += sp.end()
			lastModel = rec.now()
			return v
		},
	})
	root.end()
	tp.begin(nil)
	if err != nil {
		return nil, err
	}
	// Validation runs are the full runs started after the search's last
	// Perf prediction.
	shortlist := 0
	for _, t := range tp.runStarts {
		if t > lastModel {
			shortlist++
		}
	}
	st := res.Stats
	add := func(k string, v float64) { l[k] = append(l[k], v) }
	add("core.suffix_runs", float64(tp.suffixRuns))
	add("core.suffix_ms.mean", ratio(ms(tp.suffixTime), float64(tp.suffixRuns)))
	add("core.full_runs", float64(tp.fullRuns))
	add("core.run_ms.mean", ratio(ms(tp.runTime), float64(tp.fullRuns)))
	add("core.score_ms.total", ms(tp.scoreTime))
	add("core.search_self_s", (st.SearchTime - modelTime).Seconds())
	add("core.validation_yield", ratio(float64(st.Validated), float64(shortlist)))
	return res, nil
}

// runTune runs tune-dev: set up several times for setup_s, then tune back
// to back for the run's seconds, then check every shipped curve.
func runTune(w workload, o runOpts) (*runResult, error) {
	var setups []float64
	var app *approxtuner.App
	var tp *tracedProgram
	for i := 0; i < w.Setups; i++ {
		t0 := time.Now()
		a, p, err := buildApp(w, o.seed, o.rec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		app, tp = a, p
	}
	before := obs.Default.Snapshot()
	var tunes, profile, calibrate, search, validate, candidates []float64
	perTune := make(map[string][]float64)
	var curves []*pareto.Curve
	// Tune back to back while the next tune is expected to end within the
	// run's seconds.
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds()+median(tunes) <= o.seconds; n++ {
		t0 := time.Now()
		res, err := tuneOnce(w, app, tp, o.rec, n, perTune)
		if err != nil {
			return nil, fmt.Errorf("tune %d: %w", n, err)
		}
		tunes = append(tunes, time.Since(t0).Seconds())
		st := res.Stats
		fmt.Fprintf(os.Stderr, "  tune %d: %.3fs (profile %.3fs, calibrate %.3fs, validate %.3fs), %d points\n",
			n, tunes[n], st.ProfileTime.Seconds(), st.CalibrateTime.Seconds(), st.ValidateTime.Seconds(), res.Curve.Len())
		profile = append(profile, st.ProfileTime.Seconds())
		calibrate = append(calibrate, st.CalibrateTime.Seconds())
		search = append(search, st.SearchTime.Seconds())
		validate = append(validate, st.ValidateTime.Seconds())
		candidates = append(candidates, float64(st.Candidates))
		curves = append(curves, res.Curve)
	}
	tuneWall := time.Since(start)
	after := obs.Default.Snapshot()

	res := newRunResult()
	res.e2e["setup_s"] = median(setups)
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.e2e["peak_rss_mb"] = rss
	okTunes, err := checkCurves(w, app, curves, o, res)
	if err != nil {
		return nil, err
	}
	inDeadline := 0
	for i, t := range tunes {
		if okTunes[i] && t <= w.DeadlineS {
			inDeadline++
		}
	}
	res.e2e["latency_p50_ms"] = 1e3 * median(tunes)
	res.e2e["throughput_rps"] = float64(len(tunes)) / tuneWall.Seconds()
	res.e2e["slo_attainment"] = float64(inDeadline) / float64(len(tunes))
	res.report["tune_s"] = median(tunes)
	res.report["tunes"] = float64(len(tunes))
	res.report["tune_best_perf"] = res.e2e["result_perf"]

	l := res.layers
	l["core.profile_s"] = median(profile)
	l["core.calibrate_s"] = median(calibrate)
	l["core.search_s"] = median(search)
	l["core.validate_s"] = median(validate)
	l["core.candidates"] = median(candidates)
	for k, v := range perTune {
		l[k] = median(v)
	}
	tunesN := float64(len(tunes))
	counterMetrics(func(name string) float64 {
		return (counter(after, name) - counter(before, name)) / tunesN
	}, l)
	return res, nil
}

// checkCurves applies tune-dev's output checks and sets result_qos and
// result_perf, the medians over tunes of each curve's best point. Every
// shipped curve must pass core.CheckCurve and have at least
// MinCurvePoints points, and every point must re-evaluate on the
// calibration inputs at or above QoSMin; a curve that does not is a wrong
// output. Every curve should also be byte-identical to the first curve
// any run of this build shipped (the seed only reorders the inputs, which
// accuracy does not see). Today it is not: the Π2 predictor sums
// per-op deltas in map order, so rounding differs from tune to tune and
// the search can take another path. Each tune that ships another curve is
// therefore reported in core.curve_mismatches and on stderr, not counted
// as a failed operation, so the failure count stays a steady signal. It
// returns which tunes shipped a valid curve.
func checkCurves(w workload, app *approxtuner.App, curves []*pareto.Curve, o runOpts, res *runResult) ([]bool, error) {
	qosMin := app.BaselineQoS - w.MaxQoSLoss
	p := app.Program()
	ref := filepath.Join(o.state, "tune-dev-"+o.build+".curve.sha256")
	seen := make(map[string]curveVerdict) // by curve fingerprint
	valid := make([]bool, len(curves))
	var bestPerfs, bestQoS []float64
	mismatches := 0
	for i, c := range curves {
		res.attempted++
		data, err := c.Marshal()
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		fp := hex.EncodeToString(sum[:])
		v, done := seen[fp]
		if !done {
			v = judgeCurve(w, c, p, qosMin)
			seen[fp] = v
		}
		if want, err := os.ReadFile(ref); err != nil {
			if err := os.WriteFile(ref, []byte(fp), 0o644); err != nil {
				return nil, err
			}
		} else if string(want) != fp {
			mismatches++
			res.notes = append(res.notes, fmt.Sprintf("tune %d shipped curve %.12s, not the build's first curve %.12s (%d points)", i, fp, want, c.Len()))
		}
		if v.problem != "" {
			res.failed++
			res.wrongOutputs++
			res.notes = append(res.notes, fmt.Sprintf("tune %d: %s", i, v.problem))
			continue
		}
		valid[i] = true
		bestPerfs = append(bestPerfs, v.bestPerf)
		bestQoS = append(bestQoS, v.bestQ)
	}
	res.e2e["result_perf"] = median(bestPerfs)
	res.e2e["result_qos"] = median(bestQoS)
	res.layers["core.curve_mismatches"] = float64(mismatches)
	res.report["curve_mismatches"] = float64(mismatches)
	res.report["curve_points"] = float64(curves[0].Len())
	return valid, nil
}

// curveVerdict is one curve's check result: what is wrong with it ("" if
// nothing) and its best point's Perf and re-evaluated QoS.
type curveVerdict struct {
	problem         string
	bestPerf, bestQ float64
}

// judgeCurve checks one curve and finds its best point: the highest Perf
// among points that re-evaluate at or above qosMin.
func judgeCurve(w workload, c *pareto.Curve, p core.Program, qosMin float64) (v curveVerdict) {
	if errs := core.CheckCurve(c, false); len(errs) > 0 {
		v.problem = errors.Join(errs...).Error()
		return v
	}
	if c.Len() < w.MinCurvePoints {
		v.problem = fmt.Sprintf("shipped %d points, want at least %d", c.Len(), w.MinCurvePoints)
		return v
	}
	for i, pt := range c.Points {
		q := p.Score(core.Calib, p.Run(pt.Config, core.Calib, nil))
		if q < qosMin {
			v.problem = fmt.Sprintf("point %d re-evaluates to QoS %.4g, below QoSMin %.4g", i, q, qosMin)
			return v
		}
		if pt.Perf > v.bestPerf {
			v.bestPerf, v.bestQ = pt.Perf, q
		}
	}
	return v
}
