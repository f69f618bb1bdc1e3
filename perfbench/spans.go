package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"graphpipe/internal/obs"
)

// span is one timed call into a layer. Times are seconds since the
// recorder started; Parent is the ID of the span that was open when this
// one began (0 for a root).
type span struct {
	Trace  string  `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps the traced run's spans in memory until the run ends. It
// derives parents from a stack of open spans, so it must be fed from one
// goroutine with properly nested calls — the sequential planner path and
// the closed-loop client both are.
type recorder struct {
	t0    time.Time
	trace string
	spans []span
	open  []int // indices into spans, innermost last
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// setTrace starts a new trace: spans begun from now on share id. A nil
// recorder ignores it.
func (r *recorder) setTrace(id string) {
	if r != nil {
		r.trace = id
	}
}

// begin opens a span and returns the func that closes it. A nil recorder
// records nothing.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{
		Trace: r.trace, ID: i + 1, Parent: parent, Name: name,
		Start: time.Since(r.t0).Seconds(),
	})
	r.open = append(r.open, i)
	return func() {
		r.spans[i].End = time.Since(r.t0).Seconds()
		for k := len(r.open) - 1; k >= 0; k-- {
			if r.open[k] == i {
				r.open = append(r.open[:k], r.open[k+1:]...)
				break
			}
		}
	}
}

// hook adapts the recorder to planner.Options.Span; nil when not tracing,
// which the planners treat as "no spans".
func (r *recorder) hook() func(name string, kv ...string) func() {
	if r == nil {
		return nil
	}
	return func(name string, _ ...string) func() { return r.begin(name) }
}

// adopt copies the traces a request left in the processes it crossed into
// the recorder, under the span with ID parent. A process's root span hangs
// under the span that called it in another process when that span is among
// the traces, and under parent otherwise. Spans are placed on the
// recorder's clock by each trace's wall-clock start.
func (r *recorder) adopt(traces []*obs.TraceExport, parent int) {
	ids := make(map[string]int)
	next := len(r.spans)
	for _, t := range traces {
		for _, s := range t.Spans {
			next++
			ids[s.ID] = next
		}
	}
	t0 := r.t0.UnixMicro()
	for _, t := range traces {
		base := float64(t.StartUnixUs-t0) / 1e6
		for _, s := range t.Spans {
			p, ok := ids[s.Parent]
			if !ok {
				p = parent
			}
			start := base + float64(s.StartUs)/1e6
			r.spans = append(r.spans, span{
				Trace: r.trace, ID: ids[s.ID], Parent: p, Name: s.Name,
				Start: start, End: start + float64(s.DurUs)/1e6,
			})
		}
	}
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	count int
	total float64 // summed durations
	self  float64 // summed self times
}

// byName sums durations and self times per span name.
func byName(spans []span) map[string]*layerTime {
	self := selfTimes(spans)
	out := make(map[string]*layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += s.dur()
		lt.self += self[i]
	}
	return out
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover. Children that overlap each other
// are counted once; parts of a child outside its parent do not count.
func selfTimes(spans []span) []float64 {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], [2]float64{s.Start, s.End})
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, children[i])
	}
	return out
}

// covered measures the union of ivs clipped to [lo, hi].
func covered(lo, hi float64, ivs [][2]float64) float64 {
	clipped := make([][2]float64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]float64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	total, end := 0.0, lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
