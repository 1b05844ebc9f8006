package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one traced interval. Start and End are nanoseconds since the
// recorder's epoch; Parent is 0 for a root span. A span's layer is the
// part of its name before the first '.', and a name without one marks
// the benchmark's own code.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run writes them out. A nil
// *Recorder records nothing, so one code path serves traced and
// untraced runs.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span under parent and returns its ID.
func (r *Recorder) Begin(name string, parent int64) int64 {
	if r == nil {
		return 0
	}
	return r.Add(name, parent, time.Now(), time.Time{})
}

// End closes the span id at the current time.
func (r *Recorder) End(id int64) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records a span whose bounds are already known; a zero end leaves
// it open for End.
func (r *Recorder) Add(name string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	s := Span{Parent: parent, Name: name, Start: start.Sub(r.epoch).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(r.epoch).Nanoseconds()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	return s.ID
}

// Spans returns a copy of every span recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSON writes the spans to path as one JSON array.
func (r *Recorder) WriteJSON(path string) error {
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes returns each span's self time by ID: its duration minus the
// part of its interval covered by the union of its children.
func SelfTimes(spans []Span) map[int64]int64 {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals, clipped
// to the parent's.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// layerOf is the layer a span name belongs to ("" for the benchmark's
// own spans).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return ""
}

// LayerSelf sums self time by layer.
func LayerSelf(spans []Span) map[string]int64 {
	self := SelfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}

// Coverage is the share of the root spans' wall time that some layer's
// self time accounts for.
func Coverage(spans []Span) float64 {
	var wall int64
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.End - s.Start
		}
	}
	if wall == 0 {
		return 0
	}
	var inLayers int64
	for layer, t := range LayerSelf(spans) {
		if layer != "" {
			inLayers += t
		}
	}
	return float64(inLayers) / float64(wall)
}
