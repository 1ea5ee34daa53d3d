package serve

import (
	"math"
	"strings"
	"testing"

	"edgesurgeon/internal/telemetry"
)

// TestPerServerLabelsShareCanonicalSourceScheme is the naming regression
// test: every layer that labels per-server state — the runtime's drift
// gauges, the quarantine table's source standings, and the wire data
// plane's default agent IDs — must use the one canonical
// telemetry.SourceID scheme. A drift gauge named "serve.drift.s00" and an
// agent registered as "10.0.0.7:52113" would make faults ungreppable.
func TestPerServerLabelsShareCanonicalSourceScheme(t *testing.T) {
	rt := newRuntime(t, Hysteresis())
	gauges := rt.Metrics().State().Gauges
	for i := 0; i < 2; i++ {
		want := "serve.drift." + telemetry.SourceID(i)
		if _, ok := gauges[want]; !ok {
			var drift []string
			for name := range gauges {
				if strings.HasPrefix(name, "serve.drift.") {
					drift = append(drift, name)
				}
			}
			t.Fatalf("no drift gauge %q; registry has %v", want, drift)
		}
	}
}

// TestQuarantineKeyedByCanonicalSourceID sends strikes under an sNN source
// ID (exactly what a wire agent registers with) and asserts the quarantine
// trips for that source string and that samples from the same ID are then
// dropped — i.e. the control plane and the data plane agree on identity.
func TestQuarantineKeyedByCanonicalSourceID(t *testing.T) {
	policy := Hysteresis()
	policy.QuarantineStrikes = 2
	policy.QuarantineProbation = 100
	rt := newRuntime(t, policy)
	src := telemetry.SourceID(0)

	bad := telemetry.Sample{Time: math.NaN(), Source: src}
	if _, err := rt.Ingest(bad); err == nil {
		t.Fatal("NaN-time sample accepted")
	}
	_, err := rt.Ingest(bad)
	qerr, ok := err.(*QuarantineError)
	if !ok {
		t.Fatalf("second strike returned %T (%v), want *QuarantineError", err, err)
	}
	if qerr.Source != src {
		t.Fatalf("quarantine keyed by %q, want canonical source ID %q", qerr.Source, src)
	}

	// While quarantined, even a valid sample from that agent is dropped.
	dropped := rt.Metrics().Counter("serve.quarantine.dropped").Value()
	if _, err := rt.Ingest(telemetry.Sample{Time: 1, Source: src}); err != nil {
		t.Fatalf("quarantined-source sample should drop silently, got %v", err)
	}
	if got := rt.Metrics().Counter("serve.quarantine.dropped").Value(); got != dropped+1 {
		t.Fatalf("dropped counter %d, want %d", got, dropped+1)
	}

	// A different canonical source is unaffected.
	if _, err := rt.Ingest(telemetry.Sample{Time: 2, Source: telemetry.SourceID(1)}); err != nil {
		t.Fatalf("sample from a clean source rejected: %v", err)
	}
}
