package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/tensor"
)

// outcome is one request as the generator saw it. Times are offsets
// from the phase start: due is when the schedule wanted the request
// sent, sent when a connection actually sent it, done when the full
// response had arrived.
type outcome struct {
	body            int // index of the request body in the pool
	due, sent, done time.Duration
	status          int // HTTP status; 0 on a transport or decoding error
	resp            serve.InferResponse
	wrong           string // why the output failed its check, "" if it passed
	point           int    // curve point that served it, once checked
}

// latency is the due-time latency: from the scheduled send time to the
// full response, so a stall also charges the requests queued behind it.
func (o outcome) latency() time.Duration { return o.done - o.due }

func (o outcome) ok() bool { return o.status == http.StatusOK }

// correct reports an HTTP 200 whose output passed its check.
func (o outcome) correct() bool { return o.ok() && o.wrong == "" }

// client sends requests over one keep-alive connection.
type client struct {
	url string
	hc  *http.Client
}

func newClient(base string) *client {
	return &client{
		url: base + "/v1/infer",
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and fills o's status, response and done time.
func (c *client) do(body []byte, o *outcome, phase time.Time) {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		o.done = time.Since(phase)
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Since(phase)
	if err != nil {
		return
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &o.resp) == nil {
		o.status = resp.StatusCode
	}
}

// openLoop sends Poisson arrivals at rate req/s for dur over conns
// connections. Each connection takes the next scheduled request, waits
// for its due time if it is early, and sends; when every connection is
// busy, requests go out late and their latency still counts from the
// due time.
func openLoop(base string, bodies [][]byte, rate float64, dur time.Duration, conns int, seed int64, rec *recorder, traceBase int) []outcome {
	rng := tensor.NewRNG(seed)
	var out []outcome
	for t := time.Duration(0); ; {
		gap := -math.Log(1-rng.Float64()) / rate // exponential inter-arrival
		t += time.Duration(gap * float64(time.Second))
		if t >= dur {
			break
		}
		out = append(out, outcome{body: rng.Intn(len(bodies)), due: t})
	}
	var next atomic.Int64
	phase := time.Now()
	runWorkers(base, conns, func(c *client) {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(out) {
				return
			}
			o := &out[i]
			if d := o.due - time.Since(phase); d > 0 {
				time.Sleep(d)
			}
			sp := rec.start("loadgen:request", traceBase+i)
			o.sent = time.Since(phase)
			c.do(bodies[o.body], o, phase)
			sp.end()
		}
	})
	return out
}

// closedLoop keeps conns connections busy back to back for dur (or for n
// requests in total when n > 0): each sends its next request as soon as
// the previous response arrives.
func closedLoop(base string, bodies [][]byte, dur time.Duration, n, conns int, seed int64, rec *recorder, traceBase int) []outcome {
	var (
		mu   sync.Mutex
		out  []outcome
		sent atomic.Int64
	)
	phase := time.Now()
	var wid atomic.Int64
	runWorkers(base, conns, func(c *client) {
		rng := tensor.NewRNG(seed + wid.Add(1))
		for {
			k := int(sent.Add(1) - 1)
			if (n > 0 && k >= n) || (n <= 0 && time.Since(phase) >= dur) {
				return
			}
			o := outcome{body: rng.Intn(len(bodies))}
			o.due = time.Since(phase)
			o.sent = o.due
			sp := rec.start("loadgen:request", traceBase+k)
			c.do(bodies[o.body], &o, phase)
			sp.end()
			mu.Lock()
			out = append(out, o)
			mu.Unlock()
		}
	})
	return out
}

// runWorkers runs fn on conns goroutines, each with its own connection,
// and returns once all have finished.
func runWorkers(base string, conns int, fn func(*client)) {
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		c := newClient(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			fn(c)
		}()
	}
	wg.Wait()
}
