package agent

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/serve"
	"edgesurgeon/internal/wire"
)

// fakeClock is model time that moves only when the test says so. An event
// that is not due is recorded and announces itself on blocked, so the test
// knows when the plane has come to rest and what it waits for; advance then
// moves the clock and runs whatever is due, on the test's goroutine, in
// (instant, scheduling) order. Stage seconds measured on it are exact, and
// the order in which events of one instant run is the order they were
// scheduled in: nothing in either comes from a scheduler or a timer.
type fakeClock struct {
	blocked chan struct{} // one token per event scheduled ahead of now

	mu     sync.Mutex
	now    float64
	events []fakeEvent // in scheduling order
}

type fakeEvent struct {
	t  float64
	fn func()
}

// newFakeClock's blocked has room for more events than any test leaves
// outstanding, so scheduling one never blocks on announcing it.
func newFakeClock() *fakeClock { return &fakeClock{blocked: make(chan struct{}, 256)} }

func (c *fakeClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) At(t float64, fn func()) {
	c.mu.Lock()
	if t <= c.now {
		c.mu.Unlock()
		fn()
		return
	}
	c.events = append(c.events, fakeEvent{t, fn})
	c.mu.Unlock()
	c.blocked <- struct{}{}
}

// advance moves the clock to t, running every event due by then: the
// earliest first, events of one instant in scheduling order, the clock
// reading each event's instant while it runs, and an event scheduled by one
// of them in its turn.
func (c *fakeClock) advance(t float64) {
	for {
		c.mu.Lock()
		next := -1
		for i, e := range c.events {
			if e.t <= t && (next < 0 || e.t < c.events[next].t) {
				next = i
			}
		}
		if next < 0 {
			c.now = t
			c.mu.Unlock()
			return
		}
		e := c.events[next]
		c.events = slices.Delete(c.events, next, next+1)
		c.now = e.t
		c.mu.Unlock()
		e.fn()
	}
}

// earliest is the soonest instant anything is scheduled for.
func (c *fakeClock) earliest() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := math.Inf(1)
	for _, e := range c.events {
		t = min(t, e.t)
	}
	return t
}

// awaitBlocked returns once n more events have been scheduled ahead of now.
func (c *fakeClock) awaitBlocked(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-c.blocked:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d expected events reached the clock", i, n)
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
// onto scaled wall time — an event runs at or after its instant, by both
// clocks, and a due one runs on the caller before At returns.
func TestWallClockKeepsModelDeadlines(t *testing.T) {
	const scale = 0.01
	c := newWallClock(scale)
	t0 := time.Now()
	from := c.Now()
	ran := make(chan float64, 1)
	c.At(from+0.5, func() { ran <- c.Now() }) // 5 ms of wall clock
	if got := <-ran; got < from+0.5 {
		t.Errorf("At(%g) ran at model time %g", from+0.5, got)
	}
	if wall := time.Since(t0); wall < 5*time.Millisecond || wall > time.Second {
		t.Errorf("0.5 model-seconds at scale %g took %v of wall clock, want ~5ms", scale, wall)
	}
	due := false
	c.At(from, func() { due = true })
	if !due {
		t.Error("a due event had not run when At returned")
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
	d, err := StartDispatcher(DispatcherConfig{Scenario: sc, Runtime: rt, Clock: clock, Seed: 42, limits: limits{inferTimeout: 10 * time.Second}})
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

	// The burst's crossing requests leave the queue in the order they took
	// their places, which is the order they arrived in.
	var last *wire.Response
	for _, resp := range out[len(out)-4:] {
		if resp.Server < 0 {
			continue
		}
		if last != nil && (resp.Seq <= last.Seq || resp.QueueSec <= last.QueueSec) {
			t.Fatalf("request %d left the queue after %d with queue %v after %v", resp.Seq, last.Seq, resp.QueueSec, last.QueueSec)
		}
		last = resp
	}
	return out
}

// TestStageSecondsExactOnFakeClock: on a hand-advanced clock every response
// decomposes exactly — device + uplink + queue + service is the total, bit
// for bit — a burst queues on the user's share in arrival order, and a second
// run of the same schedule on a fresh plane reproduces every response, which
// request took which place in the queue included.
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

// TestNoGoroutinePerRequest: a request waiting on the clock is a record, not
// a goroutine. Sixteen crossing requests held at their agent's lane and 64
// whose device prefix is not yet due leave the process's goroutine count
// where it was at rest, give or take a few; a plane that parks a goroutine
// per waiting request grows by 80.
func TestNoGoroutinePerRequest(t *testing.T) {
	sc := testScenario(t, 4, 40)
	clock := newFakeClock()
	d, conn := fakePlane(t, sc, clock)
	plan := d.plan.Load()
	prefix, crossing := -1, -1
	for u := range plan.Decisions {
		dec := &plan.Decisions[u]
		if dec.Eval.DeviceSec > 0 && prefix < 0 {
			prefix = u
		}
		if dec.Server >= 0 && dec.Eval.CrossProb > 0 && crossing < 0 {
			crossing = u
		}
	}
	if prefix < 0 || crossing < 0 {
		t.Fatalf("the plan has no user with a device prefix (%d) or none that offloads (%d)", prefix, crossing)
	}
	send := func(user int, seq uint64) {
		t.Helper()
		if err := conn.Send(&wire.Request{Seq: seq, User: user}); err != nil {
			t.Fatal(err)
		}
	}
	rest := runtime.NumGoroutine()

	seq := uint64(0)
	for n := 0; n < 16; {
		seq++
		if crossDraw(42, crossing, seq) < plan.Decisions[crossing].Eval.CrossProb {
			send(crossing, seq)
			n++
		}
	}
	if plan.Decisions[crossing].Eval.DeviceSec > 0 {
		clock.awaitBlocked(t, 16)
		clock.advance(clock.earliest())
	}
	clock.awaitBlocked(t, 16) // each has reached its agent and waits for its transfer to end
	for i := 0; i < 64; i++ {
		seq++
		send(prefix, seq)
	}
	clock.awaitBlocked(t, 64)
	if grew := runtime.NumGoroutine() - rest; grew > 4 {
		t.Errorf("80 requests waiting on the clock grew the process by %d goroutines, want <= 4", grew)
	}
}
