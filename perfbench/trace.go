package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call across a layer boundary, timed from outside the program:
// the benchmark wraps the call and notes when it began and ended.
type span struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"` // experiment name, endpoint, ...
	ID     string `json:"id,omitempty"`     // request or job the span serves
	Parent int32  `json:"parent"`           // index of the causing span, -1 for a root
	Start  int64  `json:"start_ns"`         // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// N is the bytes the call moved; for cas.resolve it is 1 when the link
	// was found.
	N int64 `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	// cur is the innermost open span of a sequential caller (the study
	// pass, one ClassifyAll call), so store calls made deep inside a body
	// find their parent without a context argument. -1 when no caller set
	// one, as under smsd's concurrent workers.
	cur   atomic.Int32
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
	t.cur.Store(-1)
	return t
}

// at converts a wall time to the tracer's clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

func (t *tracer) now() int64 { return t.at(time.Now()) }

// begin opens a span and returns its index.
func (t *tracer) begin(name, detail, id string, parent int32) int32 {
	start := t.now()
	t.mu.Lock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Detail: detail, ID: id, Parent: parent, Start: start, End: -1})
	t.mu.Unlock()
	return i
}

// finish closes span i, recording n.
func (t *tracer) finish(i int32, n int64) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.spans[i].N = n
	t.mu.Unlock()
}

// add records a span that was timed elsewhere and returns its index.
func (t *tracer) add(name string, parent int32, start, end time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.at(start), End: t.at(end)})
	return int32(len(t.spans) - 1)
}

// mark returns the number of spans recorded so far; spans from a mark on
// belong to the phase that started there.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// interval is a half-open [lo, hi) stretch of tracer time.
type interval struct{ lo, hi int64 }

// unionLen is the length of the union of the intervals, each clipped to
// [lo, hi). It sorts ivs in place.
func unionLen(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a > curHi:
			total += curHi - curLo
			curLo, curHi = a, b
		default:
			curHi = max(curHi, b)
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other (concurrent store calls under one body); the overlap counts once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]interval)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		self[i] = s.dur() - unionLen(kids[int32(i)], s.Start, s.End)
	}
	return self
}

// layerSpan reports whether a span times work inside a layer of the
// program, as opposed to a root span the benchmark opens around its own
// calls (exp.run, corpus.classify_all, client).
func layerSpan(name string) bool {
	switch name {
	case "exp.body", "corpus.shard", "serve.handler", "cas.put", "cas.link", "cas.resolve", "cas.get":
		return true
	}
	return false
}

// attributedShare is the share of [lo, hi) that layer spans cover. Time the
// benchmark's own root spans cover but no layer span does (the registry's
// fingerprinting and encoding, the par fan-out between shards, the client's
// network round trip) stays unattributed.
func attributedShare(spans []span, lo, hi int64) float64 {
	if hi <= lo {
		return 0
	}
	ivs := make([]interval, 0, len(spans))
	for _, s := range spans {
		if s.End >= 0 && layerSpan(s.Name) {
			ivs = append(ivs, interval{s.Start, s.End})
		}
	}
	return float64(unionLen(ivs, lo, hi)) / float64(hi-lo)
}
