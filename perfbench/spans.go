package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one window or slice
// share a Trace id; Parent is 0 for a top-level span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Trace  int           `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the same code runs traced and untraced.
type recorder struct {
	mu    sync.Mutex
	start time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, trace int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.start)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.start)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name string, parent, trace int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(r.start), End: end.Sub(r.start)})
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type interval struct{ lo, hi time.Duration }

// covered returns the length of the union of the intervals, each
// clipped to [lo, hi].
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	cur := interval{-1, -1}
	for _, iv := range clipped {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
		} else if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// selfTimes returns, per span, its duration minus the part of its
// interval its direct children cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// selfByName returns, per span name, the self time in ms of every span.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], ms(self[s.ID]))
	}
	return out
}

// uncoveredFrac is the share of [lo, hi] that no span covers.
func uncoveredFrac(spans []span, lo, hi time.Duration) float64 {
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.Start, s.End}
	}
	return 1 - float64(covered(ivs, lo, hi))/float64(hi-lo)
}
