package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/predictor"
	"repro/internal/qos"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// rungNames orders the benchmark-generated serving curve's rungs.
var rungNames = []string{"exact", "fp16", "samp50", "perf50"}

// rungConfigs builds the four rungs of the serving curve: exact, FP16 on
// every approximable op, and filter sampling / row perforation at stride
// 2 (half the MACs) on every convolution.
func rungConfigs(g *graph.Graph) (map[string]approx.Config, error) {
	samp, perf := approx.KnobID(-1), approx.KnobID(-1)
	for _, k := range approx.All() {
		if k.Prec != tensorops.FP32 || k.Stride != 2 || k.Offset != 0 {
			continue
		}
		switch {
		case k.Kind == approx.KindSampling && samp < 0:
			samp = k.ID
		case k.Kind == approx.KindPerforation && k.Dir == tensorops.PerfRows && perf < 0:
			perf = k.ID
		}
	}
	if samp < 0 || perf < 0 {
		return nil, errors.New("knob registry has no stride-2 sampling or row-perforation knob")
	}
	out := map[string]approx.Config{"exact": nil, "fp16": {}, "samp50": {}, "perf50": {}}
	classes := g.OpClasses()
	for i, op := range g.ApproxOps() {
		out["fp16"][op] = approx.KnobFP16
		if classes[i] == approx.OpConv {
			out["samp50"][op] = samp
			out["perf50"][op] = perf
		}
	}
	return out, nil
}

// servedModel is the benchmark's in-process copy of the served model: the
// same zoo benchmark, width and weight seed the server builds, used to
// measure the curve, check responses and time layers.
type servedModel struct {
	g        *graph.Graph
	itemDims []int
	curve    *pareto.Curve
	rungOf   []string // curve point index → rung name
	cfgOf    map[string]approx.Config
	// pointOf maps a response's config label to the curve point. Sampling
	// and perforation at stride 2 predict the same Perf, so the server's
	// Perf-sorted order of those two (and so config_index) is not fixed.
	pointOf map[string]int
}

// buildServedModel builds the model and its four-rung curve: each rung's
// QoS is measured on the zoo test split and its Perf comes from the
// hardware-agnostic Eq. 3 predictor development-time tuning ships.
func buildServedModel(w workload) (*servedModel, error) {
	b, err := models.Build(w.Benchmark, models.Scale{Width: w.Width, Seed: w.ModelSeed})
	if err != nil {
		return nil, err
	}
	g := b.Model.Graph
	calib, test := b.Dataset.Split()
	gp, err := core.NewGraphProgram(g, calib.Images, test.Images,
		qos.Accuracy{Labels: calib.Labels}, qos.Accuracy{Labels: test.Labels})
	if err != nil {
		return nil, err
	}
	cfgs, err := rungConfigs(g)
	if err != nil {
		return nil, err
	}
	pp := predictor.NewPerfPredictor(gp.Costs())
	var points []pareto.Point
	for _, r := range rungNames {
		points = append(points, pareto.Point{
			QoS:    gp.Score(core.Test, gp.Run(cfgs[r], core.Test, nil)),
			Perf:   pp.Predict(cfgs[r]),
			Config: cfgs[r],
		})
	}
	curve := pareto.NewRelaxedCurve(w.Benchmark, points[0].QoS, points)
	m := &servedModel{g: g, itemDims: []int{b.Model.C, b.Model.H, b.Model.W}, curve: curve, cfgOf: cfgs, pointOf: map[string]int{}}
	for i, pt := range curve.Points {
		label := pt.Config.FormatGroupCounts()
		if _, dup := m.pointOf[label]; dup {
			return nil, fmt.Errorf("two rungs share the config label %q", label)
		}
		m.pointOf[label] = i
		for _, r := range rungNames {
			if pt.Config.FormatGroupCounts() == cfgs[r].FormatGroupCounts() {
				m.rungOf = append(m.rungOf, r)
			}
		}
	}
	return m, nil
}

// requestPool generates the seeded request inputs: pool requests of
// items images each, drawn from the benchmark's dataset generator.
func requestPool(w workload, m *servedModel, seed int64) ([]*tensor.Tensor, [][]byte, error) {
	n := w.Pool * w.ItemsPerRequest
	var ds *datasets.Dataset
	switch w.Inputs {
	case "mnist":
		ds = datasets.MNISTLike(n, seed)
	case "cifar10":
		ds = datasets.CIFARLike(n, 10, seed)
	default:
		return nil, nil, fmt.Errorf("unknown inputs %q", w.Inputs)
	}
	if d := ds.Images.Shape().Dims(); d[1] != m.itemDims[0] || d[2] != m.itemDims[1] || d[3] != m.itemDims[2] {
		return nil, nil, fmt.Errorf("inputs %q have item dims %v, model wants %v", w.Inputs, d[1:], m.itemDims)
	}
	var ins []*tensor.Tensor
	var bodies [][]byte
	for k := 0; k < w.Pool; k++ {
		in := ds.Slice(k*w.ItemsPerRequest, (k+1)*w.ItemsPerRequest).Images
		in = tensor.FromSlice(append([]float32(nil), in.Data()...), in.Shape().Dims()...)
		body, err := json.Marshal(serve.InferRequest{Input: serve.TensorJSON{Dims: in.Shape().Dims(), Data: in.Data()}})
		if err != nil {
			return nil, nil, err
		}
		ins = append(ins, in)
		bodies = append(bodies, body)
	}
	return ins, bodies, nil
}

// server is one approxserve process.
type server struct {
	cmd    *exec.Cmd
	exited chan error // receives cmd.Wait's result once
	base   string
	setup  time.Duration
	log    *os.File
}

// bootServer starts approxserve and waits for its ready file; setup is
// the time from process start until the file appears.
func bootServer(bin, work string, args []string) (*server, error) {
	ready := filepath.Join(work, "ready")
	_ = os.Remove(ready) // absent on the first boot
	logf, err := os.OpenFile(filepath.Join(work, "approxserve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-ready-file", ready)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan error, 1), log: logf}
	go func() { s.exited <- cmd.Wait() }()
	deadline := time.After(90 * time.Second)
	for {
		if addr, err := os.ReadFile(ready); err == nil && len(addr) > 0 {
			s.setup = time.Since(start)
			s.base = "http://" + string(addr)
			return s, nil
		}
		select {
		case err := <-s.exited:
			logf.Close()
			return nil, fmt.Errorf("approxserve exited before ready (%v); see %s", err, logf.Name())
		case <-deadline:
			s.stop()
			return nil, errors.New("approxserve not ready after 90s")
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the server with SIGTERM (killing it if the drain hangs)
// and waits for the process to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

// probeClient reads the server's /statz and /metrics between phases.
var probeClient = &http.Client{Timeout: 10 * time.Second}

func getJSON(url string, v any) error {
	resp, err := probeClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverSnapshot is the server state the per-layer metrics difference.
type serverSnapshot struct {
	statz   serve.StatzBody
	metrics map[string]any
	cpu     time.Duration
}

func (s *server) snapshot() (serverSnapshot, error) {
	var snap serverSnapshot
	if err := getJSON(s.base+"/statz", &snap.statz); err != nil {
		return snap, err
	}
	if err := getJSON(s.base+"/metrics?format=json", &snap.metrics); err != nil {
		return snap, err
	}
	cpu, err := cpuTime(s.cmd.Process.Pid)
	snap.cpu = cpu
	return snap, err
}

// counter reads a counter out of a metrics snapshot: the in-process
// obs.Default.Snapshot (int64) or a decoded JSON /metrics (float64); 0
// if absent.
func counter(m map[string]any, name string) float64 {
	switch v := m[name].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// serveArgs are the approxserve flags a serving workload pins.
func serveArgs(w workload, curvePath string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-benchmark", w.Benchmark,
		"-width", strconv.FormatFloat(w.Width, 'g', -1, 64),
		"-seed", strconv.FormatInt(w.ModelSeed, 10),
		"-curve", curvePath,
		"-exec-budget", fmt.Sprintf("%gms", w.ExecBudgetMs),
		"-slo", fmt.Sprintf("%gms", w.SLOMs),
		"-max-batch", strconv.Itoa(w.MaxBatch),
		"-trace-seed", "1",
		"-q",
	}
}

// runServe runs a serving workload. Each of the workload's boots is one
// set-up sample and one measured round: boot approxserve, warm the tuner
// up, run an open-loop then a closed-loop phase, read the server's
// counters and peak RSS, stop it. Spreading the measured time over
// several processes keeps one boot's scheduling luck from setting the
// run's figures. Every output is checked afterwards.
func runServe(w workload, o runOpts) (*runResult, error) {
	// The generator shares the host with the server; fewer collections in
	// this process mean less client-side jitter in the timings.
	debug.SetGCPercent(400)
	m, err := buildServedModel(w)
	if err != nil {
		return nil, err
	}
	ins, bodies, err := requestPool(w, m, o.seed)
	if err != nil {
		return nil, err
	}
	curveJSON, err := m.curve.Marshal()
	if err != nil {
		return nil, err
	}
	curvePath := filepath.Join(o.work, "curve.json")
	if err := os.WriteFile(curvePath, curveJSON, 0o644); err != nil {
		return nil, err
	}

	var setups, rss []float64
	ph := &phases{}
	for i := 0; i < w.Setups; i++ {
		srv, err := bootServer(o.server, o.work, serveArgs(w, curvePath))
		if err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())
		peak, err := drive(srv, w, o, bodies, int64(i), ph)
		srv.stop()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
	}
	res := newRunResult()
	res.e2e["setup_s"] = median(setups)
	res.e2e["peak_rss_mb"] = median(rss)
	checkServe(m, ins, ph, res)
	scoreServe(w, m, ph, res)
	if o.rec != nil {
		if err := timeLayers(w, m, ins, o.rec, res.layers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// phases holds what the generator saw and what the servers counted,
// summed over the boots of a run.
type phases struct {
	warm, open, closed []outcome
	closedWall         time.Duration
	server             serverDelta
}

// serverDelta is the change in a server's /statz, /metrics and CPU time
// over the measured phases.
type serverDelta struct {
	served, rejected, expired, failed float64
	switches, driftAlarms             float64
	cpu                               time.Duration
	counters                          map[string]float64
}

func (d *serverDelta) add(b, a serverSnapshot) {
	d.served += float64(a.statz.Served - b.statz.Served)
	d.rejected += float64(a.statz.Rejected - b.statz.Rejected)
	d.expired += float64(a.statz.Expired - b.statz.Expired)
	d.failed += float64(a.statz.Failed - b.statz.Failed)
	d.switches += float64(a.statz.Switches - b.statz.Switches)
	d.driftAlarms += float64(a.statz.Health.DriftAlarms - b.statz.Health.DriftAlarms)
	d.cpu += a.cpu - b.cpu
	if d.counters == nil {
		d.counters = map[string]float64{}
	}
	for k := range a.metrics {
		d.counters[k] += counter(a.metrics, k) - counter(b.metrics, k)
	}
}

// drive runs one boot's round on srv, appending to ph: a closed-loop
// warm-up, excluded from every timing, long enough for the tuner to
// settle; then the open-loop phase (open_phase_share of this boot's
// share of the run) and the closed-loop phase. It returns the server's
// peak RSS.
func drive(srv *server, w workload, o runOpts, bodies [][]byte, boot int64, ph *phases) (float64, error) {
	seed := o.seed + 100*boot
	ph.warm = append(ph.warm, closedLoop(srv.base, bodies, 0, w.WarmupRequests, o.conns, seed+1, nil, 0)...)
	before, err := srv.snapshot()
	if err != nil {
		return 0, err
	}
	share := o.seconds * float64(time.Second) / float64(w.Setups)
	openDur := time.Duration(w.OpenPhaseShare * share)
	closedDur := time.Duration((1 - w.OpenPhaseShare) * share)
	traceBase := len(ph.open) + len(ph.closed)
	open := openLoop(srv.base, bodies, w.OpenLoopRPS, openDur, o.conns, seed+2, o.rec, traceBase)
	t0 := time.Now()
	closed := closedLoop(srv.base, bodies, closedDur, 0, o.conns, seed+3, o.rec, traceBase+len(open))
	ph.closedWall += time.Since(t0)
	ph.open = append(ph.open, open...)
	ph.closed = append(ph.closed, closed...)
	after, err := srv.snapshot()
	if err != nil {
		return 0, err
	}
	ph.server.add(before, after)
	var lat []float64
	for _, r := range open {
		if r.ok() {
			lat = append(lat, ms(r.latency()))
		}
	}
	fmt.Fprintf(os.Stderr, "  boot %d: setup %.3fs, open loop %d requests p50 %.2fms p90 %.2fms, closed loop %.2f req/s\n",
		boot, srv.setup.Seconds(), len(open), quantile(lat, 0.5), quantile(lat, 0.9), float64(len(closed))/time.Since(t0).Seconds())
	return peakRSSMiB(srv.cmd.Process.Pid)
}

// checkServe checks every response: HTTP 200, an output of the right
// shape with finite values, a valid config_index, and agreement with an
// in-process graph.Execute of the same request under the curve point the
// response names — bit-identical for exact and FP16 (batch-invariant
// kernels), the same top-1 class for sampling and perforation. References
// are memoized per (request body, point), so every response is checked.
func checkServe(m *servedModel, ins []*tensor.Tensor, ph *phases, res *runResult) {
	type key struct{ body, idx int }
	refs := make(map[key]*tensor.Tensor)
	for _, set := range [][]outcome{ph.warm, ph.open, ph.closed} {
		for i := range set {
			o := &set[i]
			res.attempted++
			if !o.ok() {
				res.failed++
				continue
			}
			idx, known := m.pointOf[o.resp.Config]
			switch ci := o.resp.ConfigIndex; {
			case !known:
				o.wrong = fmt.Sprintf("unknown config label %q", o.resp.Config)
			case ci < 0 || ci >= m.curve.Len() || math.Float64bits(m.curve.Points[ci].Perf) != math.Float64bits(m.curve.Points[idx].Perf):
				o.wrong = fmt.Sprintf("config_index %d does not name a point like %q", ci, o.resp.Config)
			default:
				o.point = idx
				k := key{o.body, idx}
				if refs[k] == nil {
					refs[k] = m.g.Execute(ins[o.body], m.curve.Points[idx].Config, graph.ExecOptions{})
				}
				o.wrong = compareOutput(o.resp.Output, refs[k], m.rungOf[idx])
			}
			if o.wrong != "" {
				res.failed++
				res.wrongOutputs++
				if res.wrongOutputs <= 3 {
					res.notes = append(res.notes, "wrong output: "+o.wrong)
				}
			}
		}
	}
}

// compareOutput returns "" when got matches the reference under the
// rung's rule, else what differs.
func compareOutput(got serve.TensorJSON, ref *tensor.Tensor, rung string) string {
	want := ref.Shape().Dims()
	if len(got.Dims) != len(want) || got.Dims[0] != want[0] || got.Dims[1] != want[1] || len(got.Data) != ref.Elems() {
		return fmt.Sprintf("output dims %v, want %v", got.Dims, want)
	}
	for _, v := range got.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return "non-finite output value"
		}
	}
	if rung == "exact" || rung == "fp16" {
		for i, v := range ref.Data() {
			if math.Float32bits(v) != math.Float32bits(got.Data[i]) {
				return fmt.Sprintf("%s output differs from in-process execution at element %d (%v vs %v)", rung, i, got.Data[i], v)
			}
		}
		return ""
	}
	gotTop := tensor.FromSlice(got.Data, got.Dims...).RowArgMax()
	for r, c := range ref.RowArgMax() {
		if gotTop[r] != c {
			return fmt.Sprintf("%s top-1 class of item %d is %d, in-process gives %d", rung, r, gotTop[r], c)
		}
	}
	return ""
}

// scoreServe turns the phases into end-to-end and per-layer metrics.
// Latency figures pool the open-loop requests of every boot; throughput
// is the closed-loop requests completed correctly over the closed-loop
// wall time of every boot.
func scoreServe(w workload, m *servedModel, ph *phases, res *runResult) {
	slo := time.Duration(w.SLOMs * float64(time.Millisecond))
	var lat, queue, execMs, over, lag []float64
	inSLO := 0
	for _, o := range ph.open {
		lag = append(lag, ms(o.sent-o.due))
		if !o.correct() {
			continue
		}
		lat = append(lat, ms(o.latency()))
		queue = append(queue, o.resp.QueueMs)
		execMs = append(execMs, o.resp.ExecMs)
		over = append(over, ms(o.done-o.sent)-o.resp.QueueMs-o.resp.ExecMs)
		if o.latency() <= slo {
			inSLO++
		}
	}
	var batch []float64
	for _, o := range ph.closed {
		if o.correct() {
			batch = append(batch, float64(o.resp.BatchItems))
		}
	}
	var items, approxItems, qosSum, perfSum float64
	for _, set := range [][]outcome{ph.open, ph.closed} {
		for _, o := range set {
			if !o.correct() {
				continue
			}
			n := float64(o.resp.Output.Dims[0])
			pt := m.curve.Points[o.point]
			items += n
			qosSum += n * pt.QoS
			perfSum += n * pt.Perf
			if m.rungOf[o.point] != "exact" {
				approxItems += n
			}
		}
	}
	sent := float64(len(ph.open) + len(ph.closed))
	res.e2e["latency_p50_ms"] = quantile(lat, 0.50)
	res.e2e["throughput_rps"] = ratio(float64(len(batch)), ph.closedWall.Seconds())
	res.e2e["slo_attainment"] = ratio(float64(inSLO), float64(len(ph.open)))
	res.e2e["result_qos"] = ratio(qosSum, items)
	res.e2e["result_perf"] = ratio(perfSum, items)
	res.report["open_loop_requests"] = float64(len(ph.open))
	res.report["latency_p90_ms"] = quantile(lat, 0.90)
	res.report["open_loop_beyond_p90"] = float64(len(lat)) * 0.10
	res.report["latency_p99_ms"] = quantile(lat, 0.99)
	res.report["open_loop_beyond_p99"] = float64(len(lat)) * 0.01
	res.report["served_qos_loss"] = m.curve.BaselineQoS - res.e2e["result_qos"]

	d := ph.server
	l := res.layers
	l["serve.queue_ms.p50"] = quantile(queue, 0.50)
	l["serve.queue_ms.p99"] = quantile(queue, 0.99)
	l["serve.exec_ms.p50"] = quantile(execMs, 0.50)
	l["serve.exec_ms.p99"] = quantile(execMs, 0.99)
	l["serve.overhead_ms.p50"] = quantile(over, 0.50)
	l["serve.batch_items.mean"] = mean(batch)
	l["serve.cpu_ms_per_req"] = ratio(ms(d.cpu), d.served)
	l["serve.approx_item_share"] = ratio(approxItems, items)
	l["serve.switches"] = d.switches
	l["serve.drift_alarms"] = d.driftAlarms
	l["serve.rejected"] = ratio(d.rejected, sent)
	l["serve.expired"] = ratio(d.expired, sent)
	l["serve.failed"] = ratio(d.failed, sent)
	l["loadgen.latency_ms.p90"] = res.report["latency_p90_ms"]
	l["loadgen.latency_ms.p99"] = res.report["latency_p99_ms"]
	l["loadgen.lag_ms.p99"] = quantile(lag, 0.99)
	counterMetrics(func(name string) float64 { return d.counters[name] }, l)
}

// timeLayers times the served model in process on uncached inputs at the
// serving batch size, per rung, and the batch assembly around it.
func timeLayers(w workload, m *servedModel, ins []*tensor.Tensor, rec *recorder, l map[string]float64) error {
	parts := ins[:w.MaxBatch/w.ItemsPerRequest]
	batch, _, err := graph.ConcatBatch(parts)
	if err != nil {
		return err
	}
	times := make(map[string][]float64)
	var out *tensor.Tensor
	for rep := 0; rep < layerReps; rep++ {
		for _, r := range rungNames {
			sp := rec.start("graph:execute/"+r, 0)
			out = m.g.Execute(batch, m.cfgOf[r], graph.ExecOptions{})
			times[r] = append(times[r], ms(sp.end()))
		}
	}
	var asm []float64
	for rep := 0; rep < 50*layerReps; rep++ {
		sp := rec.start("graph:assemble", 0)
		b, sz, err := graph.ConcatBatch(parts)
		if err == nil {
			_, err = graph.SplitBatch(out, sz)
		}
		asm = append(asm, ms(sp.end()))
		if err != nil || b.Elems() != batch.Elems() {
			return fmt.Errorf("batch assembly: %v", err)
		}
	}
	perf := make(map[string]float64)
	for i, pt := range m.curve.Points {
		perf[m.rungOf[i]] = pt.Perf
	}
	exact := median(times["exact"])
	for _, r := range rungNames {
		l["graph.exec_ms."+r] = median(times[r])
		if r == "exact" {
			continue
		}
		sp := ratio(exact, median(times[r]))
		l["graph.speedup_measured."+r] = sp
		l["graph.model_error."+r] = ratio(perf[r], sp)
	}
	l["graph.assemble_ms"] = median(asm)
	return nil
}
