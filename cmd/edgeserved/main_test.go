package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLiveModeRejectsReplayFlags pins the -listen contract: a flag that only
// configures trace replay is refused with exit status 2 and named on stderr,
// before anything is planned or spawned, instead of being silently dropped.
func TestLiveModeRejectsReplayFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "edgeserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := []struct {
		name string // the flag stderr must name
		args []string
	}{
		{"parallelism", []string{"-parallelism", "2"}},
		{"shard-threshold", []string{"-shard-threshold", "8"}},
		{"snapshot-dir", []string{"-snapshot-dir", t.TempDir()}},
		{"recover", []string{"-recover"}},
		{"journal", []string{"-journal", "-"}},
		{"expect-full-replans", []string{"-expect-full-replans", "4"}},
		{"chaos", []string{"-chaos", "crash:3"}},
		{"verify-recovery", []string{"-verify-recovery"}},
		// Several set: the first in flag order is the one named.
		{"journal", []string{"-verify-recovery", "-journal", "-"}},
	}
	for _, c := range cases {
		args := append([]string{"-scenario", "testdata/smoke-scenario.json", "-listen", "127.0.0.1:0"}, c.args...)
		var stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: got %v, want exit status 2 (stderr: %s)", c.args, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), "-"+c.name+" ") {
			t.Errorf("%v: stderr does not name -%s: %s", c.args, c.name, stderr.String())
		}
	}
}
