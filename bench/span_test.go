package main

import (
	"testing"
	"time"
)

// A span's self time is its duration minus what its children cover:
// overlapping children count once and a child is clipped to its parent.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2 on [20, 30]
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent's end
		{ID: 5, Parent: 3, Start: 25, End: 35},  // a grandchild costs only its own parent
		{ID: 6, Parent: 99, Start: 0, End: 7},   // the parent was not recorded
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// The root span of a request runs from its intended send to its response
// and its children are the modelled stages, so its self time is exactly the
// wall time the model does not account for.
func TestRequestRootSelfTimeIsOverhead(t *testing.T) {
	rec := newRecorder(100)
	lt := &loadTrace{rec: rec, timeScale: 0.05, perWorker: 10}
	intended := rec.epoch.Add(time.Second)
	sent := intended.Add(time.Millisecond)
	done := intended.Add(10 * time.Millisecond)
	resp := &response{User: 3, Server: 1, DeviceSec: 0.1, UplinkSec: 0.02, TotalSec: 0.12}
	spans := lt.requestSpans(3, intended, sent, done, resp)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want the root and the two stages with modelled time", len(spans))
	}
	root := spans[0]
	for _, s := range spans[1:] {
		if s.Parent != root.ID || s.Req != root.ID {
			t.Errorf("stage %s: parent %d req %d, want both %d", s.Name, s.Parent, s.Req, root.ID)
		}
	}
	modelled := time.Duration(resp.TotalSec * lt.timeScale * float64(time.Second))
	want := int64(done.Sub(intended) - modelled)
	if got := selfTimes(spans)[root.ID]; got != want {
		t.Errorf("root self time = %d ns, want wall - modelled = %d ns", got, want)
	}
}

func TestRecorderBoundsItsMemory(t *testing.T) {
	rec := newRecorder(3)
	rec.add(span{ID: 1}, span{ID: 2})
	rec.add(span{ID: 3}, span{ID: 4}, span{ID: 5})
	if kept, dropped := rec.counts(); kept != 3 || dropped != 2 {
		t.Errorf("kept %d dropped %d, want 3 and 2", kept, dropped)
	}
	var off *recorder // tracing off: every call is a no-op
	off.add(span{ID: 1})
	off.region("x", "y", nil)(nil)
	if kept, dropped := off.counts(); kept != 0 || dropped != 0 || off.id() != 0 {
		t.Errorf("nil recorder recorded something")
	}
}
