package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval around a call into a layer's public API,
// or, for per-call hooks such as Program.Next, the total of every call
// made inside its parent (an aggregate, with no interval of its own).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Run    string `json:"run,omitempty"`
	// Start and End are seconds since the recorder's origin; both are
	// zero for an aggregate.
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	Dur   float64 `json:"dur_s"`
	Self  float64 `json:"self_s"`
	// Total marks an aggregate of Calls calls.
	Total bool   `json:"total"`
	Calls uint64 `json:"calls"`
}

// recorder keeps spans in memory; write emits them once the benchmark
// is done, so the file costs nothing while it measures. A nil recorder
// records nothing: begin returns -1 and end and total do nothing.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) at(t time.Time) float64 { return t.Sub(r.origin).Seconds() }

// interval records a finished interval span and returns its id.
func (r *recorder) interval(parent int, name, run string, start, end time.Time) int {
	id := len(r.spans)
	s, e := r.at(start), r.at(end)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Run: run, Start: s, End: e, Dur: e - s, Calls: 1})
	return id
}

// begin opens an interval span; end closes it.
func (r *recorder) begin(parent int, name, run string) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	return r.interval(parent, name, run, now, now)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.End = r.at(time.Now())
	s.Dur = s.End - s.Start
}

// total records an aggregate child: calls made inside parent that took
// d in all. Aggregates of one parent never overlap one another, since
// they are calls made from one goroutine.
func (r *recorder) total(parent int, name, run string, d time.Duration, calls uint64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Run: run, Dur: d.Seconds(), Total: true, Calls: calls})
}

// computeSelf sets every span's self time: its duration minus the part
// of its interval that child intervals cover (their union, so children
// that overlap, such as runs on concurrent sweep workers, count once)
// minus its aggregate children.
func (r *recorder) computeSelf() {
	kids := make(map[int][]*span)
	for i := range r.spans {
		if p := r.spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], &r.spans[i])
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		var ivs [][2]float64
		self := s.Dur
		for _, k := range kids[s.ID] {
			if k.Total {
				self -= k.Dur
			} else {
				ivs = append(ivs, [2]float64{k.Start, k.End})
			}
		}
		if !s.Total {
			self -= covered(s.Start, s.End, ivs)
		}
		s.Self = self
	}
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(lo, hi float64, ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, reach := 0.0, lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < reach {
			s = reach
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			reach = e
		}
	}
	return total
}

// sum adds the durations and self times of every span with the name.
func (r *recorder) sum(name string) (dur, self float64, n int) {
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name {
			dur += s.Dur
			self += s.Self
			n++
		}
	}
	return dur, self, n
}

// durations lists the durations of the spans with the name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if r.spans[i].Name == name {
			out = append(out, r.spans[i].Dur)
		}
	}
	return out
}

// write saves the spans as JSON lines, creating the file's directory.
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
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
