package agent

import (
	"context"
	"net"
	"os"
	"testing"
	"time"

	"edgesurgeon/internal/client"
	"edgesurgeon/internal/serve"
)

// nonLoopbackIPv4 returns an IPv4 address of a non-loopback interface that is
// up, or "" when the machine has none (containerized CI often doesn't expose
// one).
func nonLoopbackIPv4() string {
	ifaces, err := net.Interfaces()
	if err != nil {
		return ""
	}
	for _, ifc := range ifaces {
		if ifc.Flags&net.FlagUp == 0 || ifc.Flags&net.FlagLoopback != 0 {
			continue
		}
		addrs, err := ifc.Addrs()
		if err != nil {
			continue
		}
		for _, a := range addrs {
			ipn, ok := a.(*net.IPNet)
			if !ok {
				continue
			}
			if ip4 := ipn.IP.To4(); ip4 != nil {
				return ip4.String()
			}
		}
	}
	return ""
}

// TestNonLoopbackSmoke is the multi-host deployment path's smoke: the
// dispatcher binds a real (non-loopback) interface address, an agent and a
// client dial it over that address — exactly what `edgeagent -dispatcher
// host:port` does across machines, minus the second machine. Skips when the
// environment offers no non-loopback interface unless
// EDGE_NONLOOPBACK_REQUIRED=1 insists.
func TestNonLoopbackSmoke(t *testing.T) {
	ip := nonLoopbackIPv4()
	if ip == "" {
		if os.Getenv("EDGE_NONLOOPBACK_REQUIRED") == "1" {
			t.Fatal("EDGE_NONLOOPBACK_REQUIRED=1 but no non-loopback IPv4 interface found")
		}
		t.Skip("no non-loopback IPv4 interface; skipping multi-host smoke")
	}

	sc := testScenario(t, 4, 40)
	rt, err := serve.New(serve.Config{Scenario: sc, Policy: serve.Hysteresis()})
	if err != nil {
		t.Fatal(err)
	}
	d, err := StartDispatcher(DispatcherConfig{
		Scenario: sc, Runtime: rt, Listen: ip + ":0",
		TimeScale: 0.001, Seed: 42, limits: limits{inferTimeout: 10 * time.Second},
	})
	if err != nil {
		t.Skipf("cannot bind %s (sandboxed network?): %v", ip, err)
	}
	t.Cleanup(func() { d.Close(); rt.Close() })
	t.Logf("dispatcher bound to %s", d.Addr())

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for s := range sc.Servers {
		go func() {
			_ = Run(ctx, Config{
				Scenario: sc, Server: s, Dispatcher: d.Addr(),
				TimeScale: 0.001, TelemetryPeriod: 5,
			})
		}()
	}
	if err := d.WaitAgents(len(sc.Servers), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(d.Addr(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 8; i++ {
		if _, err := c.Do(context.Background(), i%len(sc.Users)); err != nil {
			t.Fatalf("request %d over %s: %v", i, d.Addr(), err)
		}
	}
}
