package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// TestRunDigests is the simulator's bit-level golden. Each config of a fixed
// grid (discipline x arrival rate x static or fading link x faults on or off
// x run to completion or cut at a horizon) is run with KeepRecords, and
// every TaskRecord field's bits, plus ServerUtil, Horizon and Events, are
// reduced to one SHA-256 recorded in testdata/run_digests.txt. The report
// digests hash rounded table text, so a last-bit change in one record can
// pass them; this file cannot. A refactor that keeps the simulator
// bit-identical leaves it untouched; `make golden-update` re-records it.

var updateDigests = flag.Bool("update", false, "rewrite testdata/run_digests.txt from this build's runs")

const digestFile = "testdata/run_digests.txt"

// digestConfig builds one grid cell: basicScenario's three offloading users,
// moved to a server and devices slow enough that the device, uplink and
// server stages all queue at the higher rates, plus one local-only user.
func digestConfig(t *testing.T, disc Discipline, rate float64, fading, faulty bool, horizon float64) Config {
	t.Helper()
	cfg := basicScenario(t, rate, 3, disc)
	nano, err := hardware.ByName("jetson-nano")
	if err != nil {
		t.Fatal(err)
	}
	rpi, err := hardware.ByName("rpi4")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Servers[0].Profile = nano
	for ui := range cfg.Users {
		cfg.Users[ui].Device = nano
		cfg.Users[ui].TxFactor = 0.05
	}
	if fading {
		link, err := netmodel.NewFading("wlan", netmodel.FadingConfig{
			States:    []float64{netmodel.Mbps(4), netmodel.Mbps(60)},
			MeanDwell: 1.5, Horizon: 200, RTT: 0.005, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Servers[0].Link = link
	}
	if faulty {
		cfg.Faults = faults.MustNew(
			faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 10, End: 13},
			faults.Window{Kind: faults.LinkOutage, Server: 0, Start: 20, End: 21.5},
			faults.Window{Kind: faults.Brownout, Server: 0, Start: 30, End: 38, Factor: 0.4},
		)
		cfg.Retry = RetryPolicy{TaskTimeout: 2}
	}
	cfg.Horizon = horizon
	local := cfg.Users[0]
	local.Plan = surgery.LocalOnly(dnn.MobileNetV2())
	local.Device = rpi
	local.Server = -1
	local.ComputeShare, local.BandwidthShare, local.TxFactor = 0, 0, 0
	local.Tasks = workload.Spec{
		User: 3, Rate: rate / 4, Arrivals: workload.Poisson,
		Difficulty: workload.UniformDifficulty, Deadline: 0.25, Seed: 103,
	}.Generate(60)
	cfg.Users = append(cfg.Users, local)
	return cfg
}

// runDigest hashes res's records and totals bit for bit.
func runDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	bit := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}
	u64(uint64(len(res.Records)))
	for i := range res.Records {
		r := &res.Records[i]
		u64(uint64(r.User))
		for _, v := range []float64{r.Arrival, r.Finish, r.Latency, r.Deadline} {
			f64(v)
		}
		bit(r.Met)
		u64(uint64(r.ExitCut))
		bit(r.Crossed)
		for _, v := range []float64{r.Accuracy, r.DeviceWait, r.DeviceSec, r.TxWait, r.TxSec, r.ServerWait, r.ServerSec, r.EnergyJ} {
			f64(v)
		}
		bit(r.Failed)
		fmt.Fprintf(h, "%d:%s", len(r.Cause), r.Cause)
	}
	u64(uint64(len(res.ServerUtil)))
	for _, v := range res.ServerUtil {
		f64(v)
	}
	f64(res.Horizon)
	u64(uint64(res.Events))
	return hex.EncodeToString(h.Sum(nil))
}

func TestRunDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler may fuse multiply-adds on other architectures, which
		// legitimately moves float bits; the digests were recorded on amd64.
		t.Skip("run digests are recorded on amd64")
	}
	discs := []struct {
		name string
		d    Discipline
	}{{"dedicated", DedicatedShares}, {"fcfs", SharedFCFS}, {"ps", ProcessorSharing}}
	got := map[string]string{}
	for _, dc := range discs {
		for _, rate := range []float64{2, 9, 30} {
			for _, fading := range []bool{false, true} {
				for _, faulty := range []bool{false, true} {
					if faulty && dc.d == ProcessorSharing {
						continue // Run refuses faults under ProcessorSharing
					}
					for _, horizon := range []float64{0, 40} {
						name := fmt.Sprintf("%s/rate=%g/fading=%t/faults=%t/horizon=%g", dc.name, rate, fading, faulty, horizon)
						res, err := Run(digestConfig(t, dc.d, rate, fading, faulty, horizon))
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got[name] = runDigest(res)
					}
				}
			}
		}
	}
	if *updateDigests {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d configs in %s", len(names), digestFile)
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, sum := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in %s (run make golden-update)", name, digestFile)
		} else if w != sum {
			t.Errorf("%s: digest %s, recorded %s", name, sum, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: recorded in %s but no longer run", name, digestFile)
		}
	}
}
