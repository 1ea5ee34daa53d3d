package main

import (
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestHTTPMux drives the -http handler: the agent's profiles answer where
// edgeserved's do.
func TestHTTPMux(t *testing.T) {
	srv := httptest.NewServer(http.DefaultServeMux)
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/heap", "/debug/pprof/goroutine"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestFlagSet is the flag ratchet: the flags -h prints must be exactly this
// list, so adding or removing one is a reviewed diff here.
func TestFlagSet(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "edgeagent")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(rest)[0])
		}
	}
	want := []string{"dispatcher", "http", "quiet", "scenario", "server", "telemetry-period", "timescale"}
	if !slices.Equal(got, want) {
		t.Errorf("flags -h prints:\n  %q\nwant:\n  %q", got, want)
	}
}
