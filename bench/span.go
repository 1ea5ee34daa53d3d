package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one request
// share Req; Parent names the span that caused this one. Times are
// nanoseconds since the recorder's epoch.
type span struct {
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Req    uint64         `json:"req,omitempty"`
	Name   string         `json:"name"`
	Layer  string         `json:"layer"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing switched off: every method is a no-op on it, so the untraced run
// executes the same code without the appends.
type recorder struct {
	epoch time.Time
	limit int
	next  atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int64
}

// newRecorder keeps at most limit spans; later ones are only counted, so a
// saturated plane cannot make the trace outgrow memory or the disk.
func newRecorder(limit int) *recorder {
	return &recorder{epoch: time.Now(), limit: limit}
}

func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// at converts a wall instant to the recorder's clock.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add stores spans up to the limit.
func (r *recorder) add(spans ...span) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	room := r.limit - len(r.spans)
	if room < 0 {
		room = 0
	}
	if len(spans) > room {
		r.dropped += int64(len(spans) - room)
		spans = spans[:room]
	}
	r.spans = append(r.spans, spans...)
}

// region opens a span now; the returned function closes and stores it.
// Attributes given at close are merged over the ones given at open.
func (r *recorder) region(name, layer string, attrs map[string]any) func(more map[string]any) {
	if r == nil {
		return func(map[string]any) {}
	}
	s := span{ID: r.id(), Name: name, Layer: layer, Start: r.at(time.Now()), Attrs: attrs}
	return func(more map[string]any) {
		s.End = r.at(time.Now())
		if len(more) > 0 {
			merged := make(map[string]any, len(s.Attrs)+len(more))
			for k, v := range s.Attrs {
				merged[k] = v
			}
			for k, v := range more {
				merged[k] = v
			}
			s.Attrs = merged
		}
		r.add(s)
	}
}

func (r *recorder) counts() (kept int, dropped int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans), r.dropped
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) map[uint64]int64 {
	type interval struct{ lo, hi int64 }
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	children := make(map[uint64][]interval)
	for i := range spans {
		c := &spans[i]
		p, ok := byID[c.Parent]
		if !ok || c.Parent == 0 {
			continue
		}
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			children[p.ID] = append(children[p.ID], interval{lo, hi})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		covered := int64(0)
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		end := s.Start
		for _, iv := range ivs {
			if iv.hi <= end {
				continue
			}
			covered += iv.hi - max(iv.lo, end)
			end = iv.hi
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// write stores the trace as JSON lines: a header object, then one span per
// line with its self time added.
func (r *recorder) write(path string, header map[string]any) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := r.spans
	header["spans"], header["dropped"] = len(spans), r.dropped
	r.mu.Unlock()
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	self := selfTimes(spans)
	for i := range spans {
		line := struct {
			span
			Self int64 `json:"self_ns"`
		}{spans[i], self[spans[i].ID]}
		if err := enc.Encode(&line); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
