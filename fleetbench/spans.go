package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// spanID names a recorded span; 0 is "no span" (a root's parent, or every
// span of a disabled tracer).
type spanID int

// span is one timed call into a layer of the program, made from the
// benchmark's own code.
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent spanID) spanID {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: spanID(len(t.spans) + 1), Parent: parent, Name: name,
		Start: int64(time.Since(t.t0)), End: -1,
	})
	return spanID(len(t.spans))
}

func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its children's intervals cover.
// Overlapping children (calls made in parallel) count once.
func selfTimes(spans []span) map[spanID]int64 {
	children := map[spanID][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[spanID]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanStats folds spans by name, in first-seen order.
func spanStats(spans []span) []spanStat {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []spanStat
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanStat{Name: s.Name})
		}
		out[i].Count++
		out[i].TotalMS += float64(s.End-s.Start) / 1e6
		out[i].SelfMS += float64(self[s.ID]) / 1e6
	}
	return out
}

// childDurationsMS returns the durations of spans named name whose
// parent is named parent.
func (t *tracer) childDurationsMS(parent, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Parent != 0 && t.spans[s.Parent-1].Name == parent {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// sumByParentMS sums the durations of spans named name under each span
// named parent, one sum per parent.
func (t *tracer) sumByParentMS(parent, name string) []float64 {
	sums := map[spanID]float64{}
	var order []spanID
	for _, s := range t.spans {
		if s.Name == parent {
			sums[s.ID] = 0
			order = append(order, s.ID)
		}
	}
	for _, s := range t.spans {
		if _, ok := sums[s.Parent]; ok && s.Name == name {
			sums[s.Parent] += float64(s.End-s.Start) / 1e6
		}
	}
	out := make([]float64, 0, len(order))
	for _, id := range order {
		out = append(out, sums[id])
	}
	return out
}

// write renders the spans and their per-name self-time summary as JSON.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Summary []spanStat `json:"summary"`
		Spans   []span     `json:"spans"`
	}{spanStats(t.spans), t.spans})
}
