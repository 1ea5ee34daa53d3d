package agent

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/serve"
	"edgesurgeon/internal/wire"
)

// fakeClock is model time that moves only when the test says so. A wait
// that is not due blocks and announces itself on blocked, so the test knows
// when the plane has come to rest and what it is waiting for; advance then
// moves the clock and releases whoever is due. Stage seconds measured on it
// are exact: nothing in them comes from a scheduler or a timer.
type fakeClock struct {
	blocked chan struct{} // one token per wait that blocked

	mu      sync.Mutex
	now     float64
	waiting []fakeWait
}

type fakeWait struct {
	t  float64
	ch chan struct{}
}

// newFakeClock's blocked has room for more waits than any test leaves
// outstanding, so a wait never blocks on announcing itself.
func newFakeClock() *fakeClock { return &fakeClock{blocked: make(chan struct{}, 64)} }

func (c *fakeClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) WaitUntil(t float64) {
	c.mu.Lock()
	if t <= c.now {
		c.mu.Unlock()
		return
	}
	w := fakeWait{t, make(chan struct{})}
	c.waiting = append(c.waiting, w)
	c.mu.Unlock()
	c.blocked <- struct{}{}
	<-w.ch
}

// advance moves the clock to t and releases every wait due by then.
func (c *fakeClock) advance(t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
	kept := c.waiting[:0]
	for _, w := range c.waiting {
		if w.t <= t {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiting = kept
}

// earliest is the soonest instant anybody waits for.
func (c *fakeClock) earliest() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := math.Inf(1)
	for _, w := range c.waiting {
		t = min(t, w.t)
	}
	return t
}

// awaitBlocked returns once n more waits have blocked.
func (c *fakeClock) awaitBlocked(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-c.blocked:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d expected waits reached the clock", i, n)
		}
	}
}

// TestNoStraySleeps is the rule that keeps modelled time on the clock: no
// non-test file of this package may call time.Sleep, time.After or time.Tick.
// A stage that needs to wait asks the Clock; the wall-clock waiting itself
// lives in internal/pace.
func TestNoStraySleeps(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		timePkg := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != timePkg || pkg.Obj != nil {
				return true
			}
			switch sel.Sel.Name {
			case "Sleep", "After", "Tick":
				t.Errorf("%s: time.%s — a modelled wait goes through the Clock (clock.go)", fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	if checked < 4 {
		t.Fatalf("parsed %d non-test files; the guard is not looking at the package", checked)
	}
}

// TestWallClockKeepsModelDeadlines: the default clock maps model instants
// onto scaled wall time — a wait returns at or after its instant, by both
// clocks, and a due one does not block.
func TestWallClockKeepsModelDeadlines(t *testing.T) {
	const scale = 0.01
	c := newWallClock(scale)
	t0 := time.Now()
	from := c.Now()
	c.WaitUntil(from + 0.5) // 5 ms of wall clock
	if got := c.Now(); got < from+0.5 {
		t.Errorf("WaitUntil(%g) returned at model time %g", from+0.5, got)
	}
	if wall := time.Since(t0); wall < 5*time.Millisecond || wall > time.Second {
		t.Errorf("0.5 model-seconds at scale %g took %v of wall clock, want ~5ms", scale, wall)
	}
	t0 = time.Now()
	c.WaitUntil(from)
	if wall := time.Since(t0); wall > time.Millisecond {
		t.Errorf("a due wait took %v", wall)
	}
}

// fakePlane runs a dispatcher and one agent per server in this process, all
// on one hand-advanced clock, and returns a connected client.
func fakePlane(t *testing.T, sc *joint.Scenario, clock *fakeClock) (*Dispatcher, *wire.Conn) {
	t.Helper()
	rt, err := serve.New(serve.Config{Scenario: sc, Policy: serve.Hysteresis()})
	if err != nil {
		t.Fatal(err)
	}
	d, err := StartDispatcher(DispatcherConfig{Scenario: sc, Runtime: rt, Clock: clock, Seed: 42, InferTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var agents sync.WaitGroup
	for s := range sc.Servers {
		agents.Add(1)
		go func() {
			defer agents.Done()
			// No telemetry: the plan the test reads is the plan that serves.
			_ = Run(ctx, Config{Scenario: sc, Server: s, Dispatcher: d.Addr(), Clock: clock, TelemetryPeriod: 1e6})
		}()
	}
	t.Cleanup(func() {
		cancel()
		clock.advance(math.Inf(1)) // nobody stays parked on a clock that has stopped
		d.Close()
		agents.Wait()
		rt.Close()
	})
	if err := d.WaitAgents(len(sc.Servers), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return d, dialClient(t, d.Addr())
}

// stageSeconds drives a fresh plane on a fake clock — every user one request
// at a time, then a burst of four for one offloading user — and returns the
// responses in a canonical order. The clock is advanced only when the plane
// has come to rest, to the earliest instant anything waits for, so every
// stage second is a difference of those instants.
func stageSeconds(t *testing.T) []*wire.Response {
	sc := testScenario(t, 4, 40)
	clock := newFakeClock()
	d, conn := fakePlane(t, sc, clock)
	plan := d.plan.Load()
	responses := make(chan *wire.Response, 16)
	go func() {
		defer close(responses)
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if resp, ok := m.(*wire.Response); ok {
				responses <- resp
			}
		}
	}()
	var out []*wire.Response
	collect := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case resp := <-responses:
				if resp == nil || resp.Status != wire.StatusOK {
					t.Fatalf("response %+v", resp)
				}
				out = append(out, resp)
			case <-time.After(10 * time.Second):
				t.Fatalf("response %d of %d never came", i, n)
			}
		}
	}
	crosses := func(user int, seq uint64) bool {
		dec := &plan.Decisions[user]
		return dec.Server >= 0 && dec.Eval.CrossProb > 0 && crossDraw(42, user, seq) < dec.Eval.CrossProb
	}
	// stages walks k requests of one user, all arrived at the same instant,
	// through their waits: device prefix, then for the c that cross the
	// transfer, then the service one finish at a time.
	stages := func(user, k, c int) {
		t.Helper()
		if plan.Decisions[user].Eval.DeviceSec > 0 {
			clock.awaitBlocked(t, k)
			clock.advance(clock.earliest())
		}
		if c == 0 {
			return
		}
		clock.awaitBlocked(t, c)
		clock.advance(clock.earliest())
		clock.awaitBlocked(t, c)
		for i := 0; i < c; i++ {
			clock.advance(clock.earliest())
		}
	}

	send := func(user int, seq uint64) {
		t.Helper()
		if err := conn.Send(&wire.Request{Seq: seq, User: user}); err != nil {
			t.Fatal(err)
		}
	}
	// Every user once, one request at a time; a user that computes a prefix
	// and sometimes offloads also gets a request that is known to cross, so
	// some response has all four stages.
	seq := uint64(0)
	burstUser := 0
	for u := range sc.Users {
		seq++
		one := []uint64{seq}
		if dec := &plan.Decisions[u]; dec.Eval.DeviceSec > 0 && dec.Server >= 0 && dec.Eval.CrossProb > 0 {
			for seq++; !crosses(u, seq); seq++ {
			}
			one = append(one, seq)
		}
		for _, q := range one {
			c := 0
			if crosses(u, q) {
				c = 1
			}
			send(u, q)
			stages(u, 1, c)
			collect(1)
		}
		if plan.Decisions[u].Eval.CrossProb > plan.Decisions[burstUser].Eval.CrossProb {
			burstUser = u
		}
	}
	// Then four at once for the user likeliest to offload.
	c := 0
	for i := 0; i < 4; i++ {
		seq++
		if crosses(burstUser, seq) {
			c++
		}
		send(burstUser, seq)
	}
	if c < 2 {
		t.Fatalf("%d of the burst's four requests cross; nothing queues", c)
	}
	stages(burstUser, 4, c)
	collect(4)

	// Which request of a burst takes which place in the queue is the
	// scheduler's choice; the places themselves are not.
	burst := out[len(out)-4:]
	sort.Slice(burst, func(i, j int) bool { return burst[i].TotalSec < burst[j].TotalSec })
	for _, resp := range burst {
		resp.Seq = 0
	}
	return out
}

// TestStageSecondsExactOnFakeClock: on a hand-advanced clock every response
// decomposes exactly — device + uplink + queue + service is the total, bit
// for bit — a burst queues on the user's share, and a second run of the same
// schedule on a fresh plane reproduces every float of every response.
func TestStageSecondsExactOnFakeClock(t *testing.T) {
	first := stageSeconds(t)
	fourStage, queued := 0, 0
	for _, r := range first {
		if got := r.DeviceSec + r.UplinkSec + r.QueueSec + r.ServerSec; got != r.TotalSec {
			t.Errorf("user %d: stages sum to %v, total says %v", r.User, got, r.TotalSec)
		}
		if r.DeviceSec > 0 && r.UplinkSec > 0 && r.ServerSec > 0 {
			fourStage++
		}
		if r.QueueSec > 0 {
			queued++
		}
	}
	if fourStage == 0 || queued == 0 {
		t.Fatalf("%d responses ran every stage and %d queued; the decomposition is untested", fourStage, queued)
	}
	second := stageSeconds(t)
	if len(first) != len(second) {
		t.Fatalf("%d responses, then %d", len(first), len(second))
	}
	bits := math.Float64bits
	for i, a := range first {
		b := second[i]
		if a.Seq != b.Seq || a.User != b.User || a.Server != b.Server ||
			bits(a.DeviceSec) != bits(b.DeviceSec) || bits(a.UplinkSec) != bits(b.UplinkSec) ||
			bits(a.QueueSec) != bits(b.QueueSec) || bits(a.ServerSec) != bits(b.ServerSec) ||
			bits(a.TotalSec) != bits(b.TotalSec) {
			t.Errorf("response %d differs between two runs of one schedule:\n %+v\n %+v", i, a, b)
		}
	}
}
