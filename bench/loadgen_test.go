package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// stallingServer answers requests one at a time and, between stallFrom and
// stallFrom+stallFor after start, not at all.
type stallingServer struct {
	mu        sync.Mutex
	start     time.Time
	stallFrom time.Duration
	stallFor  time.Duration
	wrongUser bool
}

func (s *stallingServer) Do(_ context.Context, user int) (*response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if since := time.Since(s.start); since >= s.stallFrom && since < s.stallFrom+s.stallFor {
		time.Sleep(s.stallFrom + s.stallFor - since)
	}
	if s.wrongUser {
		user++
	}
	return &response{User: user, Status: statusOK, Server: -1, DeviceSec: 0.01, TotalSec: 0.01}, nil
}

// An open loop must charge a stall to every request that was due during it:
// each is timed from its intended send, not from when the server got round
// to it. A closed loop (or a generator that waits for the previous answer)
// would have sent nothing during the stall and reported nothing slow.
func TestOpenLoopChargesAStallToTheRequestsDueDuringIt(t *testing.T) {
	const (
		rate      = 400.0 // one request every 2.5 ms
		stallFrom = 100 * time.Millisecond
		stallFor  = 50 * time.Millisecond
	)
	interval := time.Duration(float64(time.Second) / rate)
	srv := &stallingServer{start: time.Now().Add(time.Millisecond), stallFrom: stallFrom, stallFor: stallFor}
	res := openLoop(context.Background(), []doer{srv}, rate, 300*time.Millisecond, func(_, k int) int { return k % 7 }, nil)
	if len(res.ops) != int(300*time.Millisecond/interval) {
		t.Fatalf("sent %d requests, want the full schedule of %d", len(res.ops), int(300*time.Millisecond/interval))
	}
	if res.nProblem != 0 {
		t.Fatalf("output checks failed: %v", res.problems)
	}
	const slack = 5 * time.Millisecond // scheduling noise on a busy host
	var during, before, lateSum time.Duration
	nDuring, nBefore := 0, 0
	for k, op := range res.ops {
		due := interval * time.Duration(k)
		lat := time.Duration(op.latNs)
		lateSum += time.Duration(op.lateNs)
		switch {
		case due < stallFrom-slack:
			before += lat
			nBefore++
		case due >= stallFrom && due < stallFrom+stallFor-slack:
			during += lat
			nDuring++
			if owed := stallFrom + stallFor - due; lat < owed-slack {
				t.Errorf("request due %v into the run waited %v; the stall alone owes it %v", due, lat, owed)
			}
		}
	}
	if nDuring < 10 || nBefore < 10 {
		t.Fatalf("only %d requests fell in the stall and %d before it", nDuring, nBefore)
	}
	if mean := during / time.Duration(nDuring); mean < stallFor/3 {
		t.Errorf("requests due during the %v stall waited %v on average; the stall was omitted", stallFor, mean)
	}
	if mean := before / time.Duration(nBefore); mean > slack {
		t.Errorf("requests before the stall waited %v on average", mean)
	}
	// The generator itself kept to its schedule: it did not wait for answers.
	if mean := lateSum / time.Duration(len(res.ops)); mean > slack {
		t.Errorf("the generator sent %v late on average; it is not an open loop", mean)
	}
}

func TestClosedLoopRunsTheOutputChecks(t *testing.T) {
	good := &stallingServer{start: time.Now()}
	res := closedLoop(context.Background(), []doer{good, good}, 2, 30*time.Millisecond, func(w, i int) int { return (w + i) % 5 }, nil)
	if len(res.ops) == 0 || res.nProblem != 0 {
		t.Fatalf("%d ops, problems %v", len(res.ops), res.problems)
	}
	if m := summarizePlane(res, 1, func(*opRecord) int64 { return int64(time.Second) }); m.rps <= 0 || m.sloFrac != 1 || m.failed != 0 {
		t.Errorf("summary of %d good requests: rps %g, slo_hit_frac %g, failed %d", len(res.ops), m.rps, m.sloFrac, m.failed)
	}
	bad := &stallingServer{start: time.Now(), wrongUser: true}
	res = closedLoop(context.Background(), []doer{bad}, 1, 10*time.Millisecond, func(_, i int) int { return i % 5 }, nil)
	if res.nProblem != len(res.ops) || len(res.ops) == 0 {
		t.Errorf("%d of %d responses echoing the wrong user were caught", res.nProblem, len(res.ops))
	}
	if msg := checkResponse(1, &response{User: 1, DeviceSec: 1, UplinkSec: 2, QueueSec: 3, ServerSec: 4, TotalSec: 9}); msg == "" {
		t.Error("a TotalSec that is not the sum of its stages passed the check")
	}
}
