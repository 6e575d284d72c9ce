// Command perfbench is the repository's benchmark. It drives the two
// user-facing paths from outside: the approxserve binary over loopback
// HTTP (serve-approx, serve-exact) and development-time tuning through
// approxtuner.App (tune-dev). It checks every output and prints one JSON
// result line last on stdout; a human-readable report goes to stderr.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this command and approxserve first:
//
//	bash perfbench/run.sh --workload serve-approx --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the benchmark records its own spans around the calls it makes
// into each module, writes them as JSONL, prints a self-time table per
// layer and carries the per-layer metrics instead. The pinned workload
// parameters and the reasoning behind them are in workloads.json.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

//go:embed workloads.json
var workloadsJSON []byte

// workload is one entry of workloads.json.
type workload struct {
	Kind      string  `json:"kind"` // "serve" or "tune"
	Benchmark string  `json:"benchmark"`
	Width     float64 `json:"width"`
	ModelSeed int64   `json:"model_seed"` // weights; also the tuner's search seed
	Setups    int     `json:"setups"`     // set-ups per run, for the setup_s median

	// Serving workloads.
	Inputs          string  `json:"inputs"`
	Pool            int     `json:"pool"`
	ItemsPerRequest int     `json:"items_per_request"`
	MaxBatch        int     `json:"max_batch"`
	ExecBudgetMs    float64 `json:"exec_budget_ms"`
	SLOMs           float64 `json:"slo_ms"`
	OpenLoopRPS     float64 `json:"open_loop_rps"`
	OpenPhaseShare  float64 `json:"open_phase_share"`
	WarmupRequests  int     `json:"warmup_requests"`

	// Tuning workloads.
	Images         int     `json:"images"`
	MaxQoSLoss     float64 `json:"max_qos_loss"`
	MinCurvePoints int     `json:"min_curve_points"`
	DeadlineS      float64 `json:"deadline_s"`
}

// runOpts are the per-run settings shared by every workload.
type runOpts struct {
	seed    int64
	seconds float64
	conns   int
	rec     *recorder // nil unless --trace 1
	server  string    // approxserve binary
	work    string    // scratch directory of this run
	state   string    // directory that outlives runs
	build   string    // fingerprint of this benchmark binary
}

// runResult is what a workload measured.
type runResult struct {
	e2e          map[string]float64
	layers       map[string]float64
	report       map[string]float64 // extra figures for the stderr report
	attempted    int
	failed       int
	wrongOutputs int
	notes        []string
}

func newRunResult() *runResult {
	return &runResult{e2e: map[string]float64{}, layers: map[string]float64{}, report: map[string]float64{}}
}

// layerReps is how often the traced run repeats each in-process layer
// timing before taking the median.
const layerReps = 5

// endToEnd and perLayer name every metric the result line carries, with
// its unit; they mirror BENCHMARK.json. A layer a workload does not
// exercise reports 0.
var endToEnd = map[string]string{
	"setup_s":        "s",
	"peak_rss_mb":    "MiB",
	"latency_p50_ms": "ms",
	"throughput_rps": "1/s",
	"slo_attainment": "ratio",
	"result_qos":     "%",
	"result_perf":    "x",
}

var perLayer = func() map[string]string {
	m := map[string]string{
		"serve.queue_ms.p50": "ms", "serve.queue_ms.p99": "ms",
		"serve.exec_ms.p50": "ms", "serve.exec_ms.p99": "ms",
		"serve.overhead_ms.p50":   "ms",
		"serve.batch_items.mean":  "items",
		"serve.cpu_ms_per_req":    "ms",
		"serve.approx_item_share": "ratio",
		"serve.switches":          "count", "serve.drift_alarms": "count",
		"serve.rejected": "ratio", "serve.expired": "ratio", "serve.failed": "ratio",
		"graph.assemble_ms":              "ms",
		"core.profile_s":                 "s",
		"core.calibrate_s":               "s",
		"core.search_s":                  "s",
		"core.validate_s":                "s",
		"core.suffix_runs":               "count",
		"core.suffix_ms.mean":            "ms",
		"core.full_runs":                 "count",
		"core.run_ms.mean":               "ms",
		"core.score_ms.total":            "ms",
		"core.search_self_s":             "s",
		"core.validation_yield":          "ratio",
		"core.candidates":                "count",
		"core.curve_mismatches":          "count",
		"tensorops.pack_cache.hit_ratio": "ratio",
		"tensor.pool.hit_ratio":          "ratio",
		"graph.executions":               "count",
		"graph.kernel_invocations":       "count",
		"core.profile_entries":           "count",
		"predictor.pi2_evals":            "count",
		"autotuner.iterations":           "count",
		"loadgen.latency_ms.p90":         "ms",
		"loadgen.latency_ms.p99":         "ms",
		"loadgen.lag_ms.p99":             "ms",
	}
	for _, r := range rungNames {
		m["graph.exec_ms."+r] = "ms"
		if r != "exact" {
			m["graph.speedup_measured."+r] = "x"
			m["graph.model_error."+r] = "x"
		}
	}
	return m
}()

// counterMetrics fills the per-layer metrics read from the program's own
// obs counters; d gives a counter's change over the measured work.
func counterMetrics(d func(string) float64, l map[string]float64) {
	h, m := d("tensorops.pack_cache.hits"), d("tensorops.pack_cache.misses")
	l["tensorops.pack_cache.hit_ratio"] = ratio(h, h+m)
	h, m = d("tensor.pool_hits"), d("tensor.pool_misses")
	l["tensor.pool.hit_ratio"] = ratio(h, h+m)
	for _, c := range []string{"graph.executions", "graph.kernel_invocations", "core.profile_entries", "predictor.pi2_evals", "autotuner.iterations"} {
		l[c] = d(c)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name from workloads.json")
		seed    = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds = flag.Float64("seconds", 30, "measured time per run")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		server  = flag.String("server", filepath.Join(".bench_build", "perfbench", "bin", "approxserve"), "approxserve binary")
		dir     = flag.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for run files and state")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *server, *dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
}

func run(name string, seed int64, seconds float64, traced bool, server, dir string) error {
	var cfg struct {
		Workloads map[string]workload `json:"workloads"`
	}
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		return fmt.Errorf("workloads.json: %w", err)
	}
	w, ok := cfg.Workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var err error
	o := runOpts{
		seed:    seed,
		seconds: seconds,
		conns:   runtime.NumCPU(),
		server:  server,
		work:    filepath.Join(dir, "run"),
		state:   filepath.Join(dir, "state"),
	}
	if traced {
		o.rec = newRecorder()
	}
	if o.build, err = buildID(); err != nil {
		return err
	}
	if err := os.RemoveAll(o.work); err != nil {
		return err
	}
	for _, d := range []string{o.work, o.state} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	var res *runResult
	switch w.Kind {
	case "serve":
		res, err = runServe(w, o)
	case "tune":
		res, err = runTune(w, o)
	default:
		err = fmt.Errorf("workload %q has unknown kind %q", name, w.Kind)
	}
	if err != nil {
		return err
	}
	if err := report(name, seed, res, o); err != nil {
		return err
	}

	want := endToEnd
	vals := res.e2e
	if traced {
		want, vals = perLayer, res.layers
		for k := range perLayer {
			if _, ok := vals[k]; !ok {
				vals[k] = 0 // the workload does not exercise this layer
			}
		}
	}
	line := resultLine{Correct: res.wrongOutputs == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	for k, unit := range want {
		v, ok := vals[k]
		if !ok {
			return fmt.Errorf("workload %q did not measure %s", name, k)
		}
		line.Metrics[k] = metricOut{Value: v, Unit: unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
	return nil
}

// report prints the human-readable summary on stderr, saves the
// end-to-end figures of this run, and in a traced run writes the spans,
// prints the self-time table and the tracing overhead against the last
// untraced run of the same workload and seed.
func report(name string, seed int64, res *runResult, o runOpts) error {
	mode := "untraced"
	if o.rec != nil {
		mode = "traced"
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d (%s): %d operations, %d failed (error_rate %.4f)\n",
		name, seed, mode, res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)))
	for _, n := range res.notes {
		fmt.Fprintf(os.Stderr, "  check: %s\n", n)
	}
	printTable("end-to-end", res.e2e, endToEnd)
	printTable("workload figures", res.report, nil)

	saved := filepath.Join(o.state, fmt.Sprintf("%s-seed%d-%s.json", name, seed, mode))
	data, err := json.Marshal(res.e2e)
	if err != nil {
		return err
	}
	if err := os.WriteFile(saved, data, 0o644); err != nil {
		return err
	}
	if o.rec == nil {
		return nil
	}
	printTable("per-layer", res.layers, perLayer)
	spans := filepath.Join(o.state, fmt.Sprintf("%s-seed%d-trace.jsonl", name, seed))
	if err := o.rec.writeJSONL(spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "self time per layer (spans in %s):\n", spans)
	printSelfTable(os.Stderr, o.rec.selfTimes())
	base, err := os.ReadFile(filepath.Join(o.state, fmt.Sprintf("%s-seed%d-untraced.json", name, seed)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracing overhead: no untraced run of %s seed %d to compare with\n", name, seed)
		return nil
	}
	var untraced map[string]float64
	if err := json.Unmarshal(base, &untraced); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracing overhead (traced − untraced, same workload and seed):\n")
	for _, k := range sortedKeys(endToEnd) {
		fmt.Fprintf(os.Stderr, "  %-16s %+12.4f %s (%+.1f%%)\n", k, res.e2e[k]-untraced[k], endToEnd[k],
			100*ratio(res.e2e[k]-untraced[k], untraced[k]))
	}
	return nil
}

func printTable(title string, vals map[string]float64, units map[string]string) {
	fmt.Fprintf(os.Stderr, "%s:\n", title)
	for _, k := range sortedKeys(vals) {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", k, vals[k], units[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// buildID fingerprints the running benchmark binary, which holds every
// line of tuning code, so state kept for "runs of this build" resets
// whenever the code changes.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}
