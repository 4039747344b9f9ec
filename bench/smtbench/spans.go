package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the bench into a layer of the system.
// Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Req    int    `json:"req"` // the operation (figure session, sweep pass, HTTP request) it belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled in when written out
}

// spans records spans in memory for the traced run. A nil *spans records
// nothing, so untraced runs pay only a nil check at each call site.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// start opens a span and returns its id (0 when not recording).
func (s *spans) start(name string, parent, req int) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(s.list)
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list[id-1].End = now
}

// snapshot returns the closed spans.
func (s *spans) snapshot() []span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]span, 0, len(s.list))
	for _, sp := range s.list {
		if sp.End >= 0 {
			out = append(out, sp)
		}
	}
	return out
}

// writeJSON writes the closed spans, with their self times, to path.
func (s *spans) writeJSON(path string) error {
	list := s.snapshot()
	self := selfTimes(list)
	for i := range list {
		list[i].Self = self[list[i].ID]
	}
	data, err := json.MarshalIndent(list, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children
// (concurrent calls under one parent) count once, and any part of a child
// outside its parent's interval is ignored.
func selfTimes(list []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, sp := range list {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.Start, sp.End})
		}
	}
	out := make(map[int]int64, len(list))
	for _, sp := range list {
		out[sp.ID] = sp.End - sp.Start - covered(sp.Start, sp.End, children[sp.ID])
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
