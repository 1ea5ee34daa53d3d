package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHTTPMux drives the -http handler: the agent's profiles answer where
// edgeserved's do.
func TestHTTPMux(t *testing.T) {
	srv := httptest.NewServer(newMux())
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
