package main

import (
	"encoding/json"
	"fmt"
)

// metricDef names one metric of the benchmark. BENCHMARK.json is generated
// from these tables (-manifest) and a test keeps the two identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is how long one run measures by default, and what
// BENCHMARK.json tells the acceptance driver to pass as --seconds.
const runSeconds = 15

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them, so a name stands for a role — work rate, common
// operation, slow path, share within a limit, plan quality — and
// bench/README.md says which quantity plays it on each workload. Bound is the
// share of the parent's median by which the metric may worsen before a change
// counts as a regression; one bound serves all five workloads, so the
// noisiest sets it. The spreads behind them (interquartile range over ten
// seeds, as a share of the median, on the 2-vCPU reference VM; the table is
// in bench/README.md): 2-8 % for the four timed metrics on a quiet host,
// 5-16 % on an ordinary one and 15-30 % while a neighbour is busy, hence the
// contract's maximum of 25 %; 2-4 % for slo_hit_frac (9 % busy); 0.9 % for
// objective_ms on plan_cold, from the seed's class rotation, and 0 elsewhere.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rps", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"slow_op_us", "us", "lower", 0.25},
	{"slo_hit_frac", "frac", "higher", 0.10},
	{"objective_ms", "model_ms", "lower", 0.03},
}

// wireMessages are the protocol messages the wire drivers measure.
var wireMessages = []string{"request", "response", "infer64k", "inferresult", "allocation32", "telemetry"}

// dataplaneCounters are the dispatcher's end-of-run counters a plane
// workload reports (zero on the control workloads).
var dataplaneCounters = []string{
	"requests", "requests_failed", "request_retries", "client_shed",
	"write_deadline_trips", "telemetry_coalesced", "telemetry_dropped", "alloc_pushes",
}

// perLayer are the metrics of single layers, printed by the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, m := range wireMessages {
		add("wire.encode_ns."+m, "ns", "lower")
		add("wire.decode_ns."+m, "ns", "lower")
		add("wire.allocs."+m, "count", "lower")
		add("wire.frame_bytes."+m, "bytes", "lower")
	}
	add("wire.conn_rtt_us", "us", "lower")
	add("client.do_stub_us", "us", "lower")
	add("client.do_allocs", "count", "lower")
	add("agent.local_rtt_us", "us", "lower")
	add("agent.offload_rtt_us", "us", "lower")
	add("agent.hop_us", "us", "lower")
	add("agent.infer_us", "us", "lower")
	add("agent.install_us", "us", "lower")
	for _, c := range dataplaneCounters {
		better := "lower"
		if c == "requests" {
			better = "higher"
		}
		add("dataplane."+c, "count", better)
	}
	add("cluster.agent_build_s", "s", "lower")
	add("cluster.start_s", "s", "lower")
	add("config.parse_ms", "ms", "lower")

	// The load generator's own view of the traced workload.
	add("gen.samples", "count", "higher")
	add("gen.lat_p50_us", "us", "lower")
	add("gen.late_p50_us", "us", "lower")
	add("gen.late_p99_us", "us", "lower")
	add("gen.lat_p99_us", "us", "lower")
	add("gen.lat_tail_us", "us", "lower")
	add("gen.lat_tail_pct", "pct", "higher")
	add("gen.overhead_p99_us", "us", "lower")
	add("gen.overhead_ok_frac", "frac", "higher")
	add("gen.crossed_frac", "frac", "higher")
	add("gen.model_ms_p50", "ms", "lower")
	add("plane.replans_full", "count", "lower")
	add("plane.replans_delta", "count", "lower")

	add("serve.new_s", "s", "lower")
	for _, k := range []string{"nochange", "cheap", "delta", "full"} {
		add("serve.ingest_ms."+k, "ms", "lower")
	}
	for _, k := range []string{"cheap", "delta", "full", "deferred"} {
		add("serve.n."+k, "count", "lower")
	}
	add("serve.recover_s", "s", "lower")
	add("serve.snapshot_bytes", "bytes", "lower")
	add("serve.wal_bytes", "bytes", "lower")
	add("serve.wal_append_us", "us", "lower")
	add("serve.snapshot_write_ms", "ms", "lower")

	add("joint.frontier_build_s", "s", "lower")
	add("joint.plan_s", "s", "lower")
	add("joint.plandelta_ms", "ms", "lower")
	add("joint.observe_ms", "ms", "lower")
	add("joint.surgery_ops", "count", "lower")
	add("joint.iterations", "count", "lower")
	add("joint.frontier_hit_frac", "frac", "higher")
	add("joint.plan_alloc_mb", "MB", "lower")

	add("surgery.optimize_us", "us", "lower")
	add("surgery.optimize_allocs", "count", "lower")
	add("surgery.lookup_ns", "ns", "lower")
	add("surgery.build_frontier_ms", "ms", "lower")
	add("surgery.probes", "count", "lower")
	add("alloc.deadline_aware_us", "us", "lower")

	add("telemetry.counter_inc_ns", "ns", "lower")
	add("telemetry.histogram_observe_ns", "ns", "lower")
	add("telemetry.dump_us", "us", "lower")

	add("proc.cpu_us_per_op", "us", "lower")
	add("proc.alloc_bytes_per_op", "bytes", "lower")
	add("proc.gc_pause_ms", "ms", "lower")
	add("proc.peak_rss_mb", "MB", "lower")
	add("trace.overhead_frac", "frac", "lower")
	add("trace.spans", "count", "higher")
	add("trace.dropped", "count", "lower")
	return defs
}

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricDef     `json:"end_to_end"`
		PerLayer   []metricDef     `json:"per_layer"` // no bound: omitted
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{w.name, w.why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("rendering manifest: %w", err)
	}
	return append(out, '\n'), nil
}
