package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const smokeScenario = "../edgeserved/testdata/smoke-scenario.json"

// build compiles the command into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestScenarioFlag: -scenario plans and simulates the file under the
// comparison set and prints one row per strategy.
func TestScenarioFlag(t *testing.T) {
	out, err := exec.Command(build(t), "-scenario", smokeScenario).Output()
	if err != nil {
		t.Fatalf("-scenario: %v", err)
	}
	rows := map[string]int{}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]]++
		}
	}
	for _, name := range []string{"joint", "local-only", "edge-only", "neurosurgeon", "branchy-local"} {
		if rows[name] != 1 {
			t.Errorf("%d rows for strategy %s, want 1:\n%s", rows[name], name, out)
		}
	}
}

// TestScenarioRejectsRun: -scenario with -run exits 2 naming both flags.
func TestScenarioRejectsRun(t *testing.T) {
	var stderr bytes.Buffer
	cmd := exec.Command(build(t), "-scenario", smokeScenario, "-run", "E1")
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("got %v, want exit status 2 (stderr: %s)", err, stderr.String())
	}
	for _, flag := range []string{"-scenario", "-run"} {
		if !strings.Contains(stderr.String(), flag) {
			t.Errorf("stderr does not name %s: %s", flag, stderr.String())
		}
	}
}

// TestFailedRunWritesProfiles: an unknown -run ID exits 2 and still leaves
// both profiles written.
func TestFailedRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	err := exec.Command(build(t), "-run", "E99", "-cpuprofile", cpu, "-memprofile", mem).Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-run E99: got %v, want exit status 2", err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s after a failed run: %v, want a non-empty profile", filepath.Base(path), err)
		}
	}
}
