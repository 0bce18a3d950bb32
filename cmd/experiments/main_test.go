package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: a re-executed test
// binary with EXPERIMENTS_ARGS set runs main with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EXPERIMENTS_ARGS"); ok {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// experiments runs the command with args and returns its exit code,
// stdout and stderr.
func experiments(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_ARGS="+strings.Join(args, " "))
	var out, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errBuf
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("experiments %v: %v", args, err)
	}
	return code, out.String(), errBuf.String()
}

// Bad sweep options are usage errors (exit 2) before any simulation,
// as /api/experiment answers them with a 400: nothing is planned, run
// or rendered.
func TestBadSweepOptionsExitTwo(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown benchmark", []string{"-exp", "fig8", "-benchmarks", "nw,bogus", "-cycles", "300"}, `unknown benchmark "bogus"`},
		{"unknown benchmark, all", []string{"-exp", "all", "-benchmarks", "bogus", "-cycles", "300"}, `unknown benchmark "bogus"`},
		{"zero cycles", []string{"-exp", "fig8", "-benchmarks", "nw", "-cycles", "0"}, "-cycles must be positive"},
		{"zero cycles, static table", []string{"-exp", "table1", "-cycles", "0"}, "-cycles must be positive"},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := experiments(t, c.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("stderr %q does not say %q", stderr, c.want)
			}
			if stdout != "" || strings.Contains(stderr, "sweep:") {
				t.Fatalf("a refused sweep ran: stdout %q, stderr %q", stdout, stderr)
			}
		})
	}
}

// Valid options still sweep: a named benchmark subset runs and
// renders, with the debug endpoint serving for the sweep's duration.
func TestValidSweepRuns(t *testing.T) {
	code, stdout, stderr := experiments(t, "-exp", "fig8", "-benchmarks", "nw", "-cycles", "300", "-jobs", "1", "-debug-addr", "localhost:0")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "debug: serving http://") {
		t.Fatalf("debug endpoint not served:\n%s", stderr)
	}
	if !strings.Contains(stdout, "# generated: go run ./cmd/experiments -exp fig8 -cycles 300 -benchmarks nw") {
		t.Fatalf("fig8 not rendered:\n%s", stdout)
	}
}
