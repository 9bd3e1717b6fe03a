package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed interval of the traced run. Spans of one request or
// one rebuild share a Trace id; Parent is the ID of the span that caused
// it (0 for a root).
type Span struct {
	Name   string        `json:"name"`
	Trace  int           `json:"trace"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	spans  []Span
	traces int
}

// NewTrace starts a new trace id.
func (t *Tracer) NewTrace() int {
	t.traces++
	return t.traces
}

// Add records a span and returns its ID.
func (t *Tracer) Add(name string, trace, parent int, start, end time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{Name: name, Trace: trace, ID: id, Parent: parent, Start: start, End: end})
	return id
}

// AddRequest records a request's spans: due → done, split into the wait
// in the generator's queue (due → sent), the server's time to the first
// response byte (sent → first byte) and the body transfer (first byte →
// done).
func (t *Tracer) AddRequest(r Result) {
	if r.Err != nil || r.FirstByte == 0 {
		return
	}
	tr := t.NewTrace()
	root := t.Add("request", tr, 0, r.Due, r.Done)
	t.Add("queue", tr, root, r.Due, r.Sent)
	t.Add("server", tr, root, r.Sent, r.FirstByte)
	t.Add("body", tr, root, r.FirstByte, r.Done)
}

// AddCycle records a rebuild's spans: trigger → follower serving, split
// into the leader's build (trigger → leader serving) and publication
// (leader serving → follower serving). Times are offsets from origin.
func (t *Tracer) AddCycle(c cycle, origin time.Time) {
	tr := t.NewTrace()
	trig, lead, fol := c.Trigger.Sub(origin), c.LeaderServing.Sub(origin), c.FollowerServing.Sub(origin)
	root := t.Add("rebuild", tr, 0, trig, fol)
	t.Add("leader_build", tr, root, trig, lead)
	t.Add("publish", tr, root, lead, fol)
}

// SelfTimes returns each span name's self times in milliseconds: a
// span's duration minus the part of it its child spans cover.
func (t *Tracer) SelfTimes() map[string][]float64 {
	children := make(map[int][]Span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		covered := coverage(s, children[s.ID])
		out[s.Name] = append(out[s.Name], ms(s.End-s.Start-covered))
	}
	return out
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's.
func coverage(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
			continue
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// Write saves the spans as JSON.
func (t *Tracer) Write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
