package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// iteration or statement share Trace; Parent is 0 for a root span.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the workload ends. It is safe for
// concurrent use by several clients.
type Recorder struct {
	t0 time.Time

	mu     sync.Mutex
	nextID int64
	spans  []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *Recorder) id() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

func (r *Recorder) add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of every finished span, ordered by start.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeJSONL writes the spans as JSON lines, one span per line.
func (r *Recorder) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Tracer opens spans inside one trace. The zero Tracer records nothing,
// so untraced runs take the same code path at the cost of one nil check
// per call.
type Tracer struct {
	rec    *Recorder
	trace  int64
	parent int64
}

// Trace starts a new trace (one iteration or statement). A nil recorder
// yields the zero Tracer.
func (r *Recorder) Trace() Tracer {
	if r == nil {
		return Tracer{}
	}
	return Tracer{rec: r, trace: r.id()}
}

// Span runs fn inside a span called name. fn receives a Tracer whose
// spans become children of this one.
func (t Tracer) Span(name string, fn func(Tracer) error) error {
	if t.rec == nil {
		return fn(t)
	}
	s := Span{ID: t.rec.id(), Parent: t.parent, Trace: t.trace, Name: name, Start: t.rec.now()}
	err := fn(Tracer{rec: t.rec, trace: t.trace, parent: s.ID})
	s.End = t.rec.now()
	t.rec.add(s)
	return err
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children, so nested and
// overlapping (concurrent) children are counted once.
func selfTimes(spans []Span) map[int64]int64 {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of the
// spans' intervals.
func covered(lo, hi int64, spans []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max64(s.Start, lo), min64(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max64(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerSelfMS sums, per trace, the self time of every span whose name
// starts with prefix+".", and returns the per-trace sums in milliseconds
// (traces without such a span are skipped).
func layerSelfMS(spans []Span, self map[int64]int64, prefix string) []float64 {
	perTrace := make(map[int64]int64)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix+".") {
			perTrace[s.Trace] += self[s.ID]
		}
	}
	out := make([]float64, 0, len(perTrace))
	for _, ns := range perTrace {
		out = append(out, float64(ns)/1e6)
	}
	return out
}

// spanMS returns the durations of spans named exactly name, in
// milliseconds.
func spanMS(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur())/1e6)
		}
	}
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
