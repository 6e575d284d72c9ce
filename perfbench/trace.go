package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// recorder keeps the benchmark's own spans in memory and writes them out
// when the run ends. A nil *recorder records nothing, so untraced runs
// pay one nil check per call site.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Times are nanoseconds since the
// recorder's epoch; Trace groups the spans of one request or tuning run.
type spanRec struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is an open span; End records it.
type span struct {
	r      *recorder
	name   string
	id     int
	parent int
	trace  int
	start  int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// start opens a root span of trace tr.
func (r *recorder) start(name string, tr int) *span {
	if r == nil {
		return nil
	}
	return &span{r: r, name: name, id: r.nextID(), trace: tr, start: r.now()}
}

// child opens a span under s (a root span when s is nil but r is live).
func (r *recorder) child(s *span, name string) *span {
	if r == nil {
		return nil
	}
	if s == nil {
		return r.start(name, 0)
	}
	return &span{r: r, name: name, id: r.nextID(), parent: s.id, trace: s.trace, start: r.now()}
}

func (r *recorder) nextID() int { return int(r.ids.Add(1)) }

// end records the span and returns its duration.
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	e := s.r.now()
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, spanRec{Name: s.name, ID: s.id, Parent: s.parent, Trace: s.trace, Start: s.start, End: e})
	s.r.mu.Unlock()
	return time.Duration(e - s.start)
}

// writeJSONL writes every recorded span, one JSON object a line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSelf is a layer's share of the traced run: the span count, the
// summed span durations and the summed self time (duration minus the part
// of the span's interval its children cover).
type layerSelf struct {
	Layer      string
	Spans      int
	Total      time.Duration
	Self       time.Duration
	SelfByName map[string]time.Duration
}

// selfTimes groups spans by layer (the name up to ':') and computes self
// time per span. Children that run concurrently are merged as intervals,
// so overlapping children are not subtracted twice.
func (r *recorder) selfTimes() []layerSelf {
	r.mu.Lock()
	spans := append([]spanRec(nil), r.spans...)
	r.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byLayer := make(map[string]*layerSelf)
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ":")
		ls := byLayer[layer]
		if ls == nil {
			ls = &layerSelf{Layer: layer, SelfByName: make(map[string]time.Duration)}
			byLayer[layer] = ls
		}
		self := time.Duration(s.End-s.Start) - covered(kids[s.ID], s.Start, s.End)
		ls.Spans++
		ls.Total += time.Duration(s.End - s.Start)
		ls.Self += self
		ls.SelfByName[s.Name] += self
	}
	out := make([]layerSelf, 0, len(byLayer))
	for _, ls := range byLayer {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// printSelfTable writes the per-layer self-time table.
func printSelfTable(w io.Writer, layers []layerSelf) {
	fmt.Fprintf(w, "%-10s %-26s %9s %12s %12s\n", "layer", "span", "spans", "total_ms", "self_ms")
	for _, ls := range layers {
		fmt.Fprintf(w, "%-10s %-26s %9d %12.2f %12.2f\n", ls.Layer, "(all)", ls.Spans, ms(ls.Total), ms(ls.Self))
		names := make([]string, 0, len(ls.SelfByName))
		for n := range ls.SelfByName {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-10s %-26s %9s %12s %12.2f\n", "", n, "", "", ms(ls.SelfByName[n]))
		}
	}
}
