package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for
// a root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Req    int       `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// ReqBytes and RespBytes are body sizes; Status is the HTTP
	// status (0 for in-process spans).
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
	Rows      int   `json:"rows,omitempty"`
	Status    int   `json:"status,omitempty"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so the untraced run pays no span bookkeeping.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its ID.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is the parent's duration minus the part of its interval
// that the children cover. Children may overlap one another (the
// router forwards to its nodes concurrently) and may stick out of the
// parent; only their union, clipped to the parent, is subtracted.
func selfTime(parent span, children []span) time.Duration {
	return parent.dur() - covered(parent, children)
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
