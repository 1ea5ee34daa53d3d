package agent

import (
	"math"
	"testing"
	"time"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/serve"
	"edgesurgeon/internal/wire"
)

// standIn is a dispatcher on a fake clock whose one offloading user is
// served by a raw-wire stand-in agent the test answers by hand, and a
// client that asks for that user.
type standIn struct {
	d      *Dispatcher
	clock  *fakeClock
	agent  *wire.Conn // registered for the user's server
	client *wire.Conn
	user   int
	seq    uint64 // a request Seq whose task crosses the partition
}

func newStandIn(t *testing.T, timeout time.Duration) *standIn {
	t.Helper()
	sc := testScenario(t, 4, 40)
	rt, err := serve.New(serve.Config{Scenario: sc, Policy: serve.Hysteresis()})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	d, err := StartDispatcher(DispatcherConfig{Scenario: sc, Runtime: rt, Clock: clock, limits: limits{inferTimeout: timeout}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		clock.advance(math.Inf(1))
		d.Close()
		rt.Close()
	})
	s := &standIn{d: d, clock: clock, user: -1}
	for u, dec := range d.plan.Load().Decisions {
		if dec.Server >= 0 && dec.Eval.CrossProb > 0 {
			s.user = u
			break
		}
	}
	if s.user < 0 {
		t.Fatal("the plan offloads nobody")
	}
	dec := s.decision()
	for s.seq = 1; crossDraw(d.cfg.Seed, s.user, s.seq) >= dec.Eval.CrossProb; s.seq++ {
	}
	s.agent = dialAgent(t, d, sc, dec.Server)
	s.client = dialClient(t, d.Addr())
	return s
}

func (s *standIn) decision() *joint.Decision { return &s.d.plan.Load().Decisions[s.user] }

// request sends one Request and runs its device prefix to its end on the
// fake clock; a zero-length prefix ends on the dispatcher's read loop.
func (s *standIn) request(t *testing.T, seq uint64, user int) {
	t.Helper()
	if err := s.client.Send(&wire.Request{Seq: seq, User: user}); err != nil {
		t.Fatal(err)
	}
	if user == s.user && s.decision().Eval.DeviceSec > 0 {
		s.clock.awaitBlocked(t, 1)
		s.clock.advance(s.clock.earliest())
	}
}

// nextInfer reads the stand-in agent's connection up to the next Infer.
func (s *standIn) nextInfer(t *testing.T) *wire.Infer {
	t.Helper()
	for {
		m, err := s.agent.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if in, ok := m.(*wire.Infer); ok {
			if in.User != s.user {
				t.Fatalf("Infer for user %d, want %d", in.User, s.user)
			}
			return in
		}
	}
}

func (s *standIn) answer(t *testing.T, res *wire.InferResult) {
	t.Helper()
	if err := s.agent.Send(res); err != nil {
		t.Fatal(err)
	}
}

func (s *standIn) response(t *testing.T) *wire.Response {
	t.Helper()
	m, err := s.client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := m.(*wire.Response)
	if !ok {
		t.Fatalf("client got %T, want Response", m)
	}
	return resp
}

// counts reads the request-path counters: requests, ok, failed, retries.
func (s *standIn) counts() [4]int64 {
	d := s.d
	return [4]int64{d.cRequests.Value(), d.cOK.Value(), d.cFailed.Value(), d.cRetries.Value()}
}

// TestUnknownUserRejected: a Request naming a user outside the scenario is
// answered StatusRejected, with no server, and counted as failed.
func TestUnknownUserRejected(t *testing.T) {
	s := newStandIn(t, 10*time.Second)
	users := len(s.d.cfg.Scenario.Users)
	for i, user := range []int{-1, users} {
		s.request(t, uint64(i+1), user)
		resp := s.response(t)
		if resp.Status != wire.StatusRejected || resp.Server != -1 || resp.User != user {
			t.Errorf("user %d: status %d server %d user %d, want rejected, -1, %d", user, resp.Status, resp.Server, resp.User, user)
		}
	}
	if got, want := s.counts(), [4]int64{2, 0, 2, 0}; got != want {
		t.Fatalf("requests/ok/failed/retries %v, want %v", got, want)
	}
}

// TestInferTimeoutRetriedThenFailed: an agent that never answers costs the
// request one retry after inferTimeout and then a StatusFailed answer naming
// the server it was routed to.
func TestInferTimeoutRetriedThenFailed(t *testing.T) {
	s := newStandIn(t, 20*time.Millisecond)
	s.request(t, s.seq, s.user)
	first := s.nextInfer(t)
	if second := s.nextInfer(t); second.Seq == first.Seq {
		t.Fatalf("the retry reused Infer seq %d", first.Seq)
	}
	resp := s.response(t)
	if resp.Status != wire.StatusFailed || resp.Server != s.decision().Server {
		t.Fatalf("status %d server %d, want failed on %d", resp.Status, resp.Server, s.decision().Server)
	}
	if got, want := s.counts(), [4]int64{1, 0, 1, 1}; got != want {
		t.Fatalf("requests/ok/failed/retries %v, want %v", got, want)
	}
}

// TestNonOKInferResultRetried: an agent's non-OK InferResult is retried,
// and the retry's answer is the one the client gets.
func TestNonOKInferResultRetried(t *testing.T) {
	s := newStandIn(t, 10*time.Second)
	s.request(t, s.seq, s.user)
	in := s.nextInfer(t)
	s.answer(t, &wire.InferResult{Seq: in.Seq, User: in.User, Status: wire.StatusFailed})
	in = s.nextInfer(t)
	s.answer(t, &wire.InferResult{Seq: in.Seq, User: in.User, UplinkSec: 0.25, QueueSec: 0.125, ServerSec: 0.5})
	resp := s.response(t)
	dec := s.decision()
	rtt := s.d.cfg.Scenario.Servers[dec.Server].RTT
	if resp.Status != wire.StatusOK || resp.Server != dec.Server || resp.UplinkSec != rtt+0.25 ||
		resp.QueueSec != 0.125 || resp.ServerSec != 0.5 {
		t.Fatalf("response %+v, want OK on server %d with the retry's stages", resp, dec.Server)
	}
	if got, want := s.counts(), [4]int64{1, 1, 0, 1}; got != want {
		t.Fatalf("requests/ok/failed/retries %v, want %v", got, want)
	}
}

// TestRetryAfterReplanToDeviceFinishesLocally: a failed handoff whose user
// was re-planned device-only meanwhile completes on the device, with no
// server and the prefix as its whole latency.
func TestRetryAfterReplanToDeviceFinishesLocally(t *testing.T) {
	s := newStandIn(t, 10*time.Second)
	s.request(t, s.seq, s.user)
	in := s.nextInfer(t)

	s.d.ingestMu.Lock()
	next := *s.d.plan.Load()
	next.Decisions = append([]joint.Decision(nil), next.Decisions...)
	next.Decisions[s.user].Server = -1
	s.d.publishLocked(&next)
	s.d.ingestMu.Unlock()

	s.answer(t, &wire.InferResult{Seq: in.Seq, User: in.User, Status: wire.StatusFailed})
	resp := s.response(t)
	if resp.Status != wire.StatusOK || resp.Server != -1 || resp.UplinkSec != 0 || resp.TotalSec != resp.DeviceSec {
		t.Fatalf("response %+v, want OK on the device with TotalSec = DeviceSec", resp)
	}
	if got, want := s.counts(), [4]int64{1, 1, 0, 1}; got != want {
		t.Fatalf("requests/ok/failed/retries %v, want %v", got, want)
	}
}
