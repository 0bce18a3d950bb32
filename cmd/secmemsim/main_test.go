package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"

	"gpusecmem"
)

// TestMain lets a test run the command itself: a re-executed test
// binary with SECMEMSIM_ARGS set runs main with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SECMEMSIM_ARGS"); ok {
		os.Args = append([]string{"secmemsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// secmemsim runs the command with args and returns its stdout.
func secmemsim(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SECMEMSIM_ARGS="+strings.Join(args, " "))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("secmemsim %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// runJSON runs `secmemsim -json` on fdtd2d for 3,000 cycles, long
// enough for the unified metadata cache to change the result (at 2,000
// cycles it does not yet).
func runJSON(t *testing.T, args ...string) []byte {
	t.Helper()
	return secmemsim(t, append([]string{"-json", "-bench", "fdtd2d", "-cycles", "3000"}, args...)...)
}

// simulateJSON is what `secmemsim -json` must print for cfg: the
// library's result, encoded the way the command encodes it.
func simulateJSON(t *testing.T, cfg gpusecmem.Config) []byte {
	t.Helper()
	cfg.MaxCycles = 3000
	res, err := gpusecmem.Simulate(cfg, "fdtd2d")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func preset(t *testing.T, scheme string) gpusecmem.Config {
	t.Helper()
	cfg, err := gpusecmem.ConfigForScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestSchemePresetsMatchLibrary: with no knob flags, every scheme name
// simulates exactly its library preset — no flag default may override
// it.
func TestSchemePresetsMatchLibrary(t *testing.T) {
	for _, scheme := range gpusecmem.SchemeNames() {
		got := runJSON(t, "-scheme", scheme)
		if want := simulateJSON(t, preset(t, scheme)); !bytes.Equal(got, want) {
			t.Errorf("-scheme %s: output differs from gpusecmem.Simulate of its preset", scheme)
		}
	}
}

// TestKnobFlagsOverridePreset: a knob the user sets replaces the
// preset's value, and only that value.
func TestKnobFlagsOverridePreset(t *testing.T) {
	unified := preset(t, "unified")
	unified.Secure.MetaMSHRs = 8
	unified.Secure.AESLatency = 80
	got := runJSON(t, "-scheme", "unified", "-mshrs", "8", "-aes-latency", "80")
	if !bytes.Equal(got, simulateJSON(t, unified)) {
		t.Error("-scheme unified -mshrs 8 -aes-latency 80: output differs from the preset with those two knobs")
	}
	got = runJSON(t, "-scheme", "ctr_mac_bmt", "-unified")
	if !bytes.Equal(got, simulateJSON(t, preset(t, "unified"))) {
		t.Error("-scheme ctr_mac_bmt -unified: output differs from the unified preset")
	}
}

// TestBaselineSchemeNormalizesToOne: -scheme baseline reuses its own
// run as the IPC baseline.
func TestBaselineSchemeNormalizesToOne(t *testing.T) {
	out := string(secmemsim(t, "-bench", "fdtd2d", "-cycles", "3000", "-scheme", "baseline"))
	if !strings.Contains(out, "normalized 1.000)") {
		t.Fatalf("baseline run not normalized to itself:\n%s", out)
	}
}

// TestHelpNamesEveryScheme: the -scheme help lists every SchemeNames()
// entry, so -h never hides a scheme the command accepts.
func TestHelpNamesEveryScheme(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SECMEMSIM_ARGS=-h")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("secmemsim -h: %v\n%s", err, out)
	}
	_, help, ok := strings.Cut(string(out), "  -scheme ")
	if !ok {
		t.Fatalf("secmemsim -h has no -scheme flag:\n%s", out)
	}
	help, _, _ = strings.Cut(help, "\n  -") // up to the next flag
	listed := map[string]bool{}
	for _, w := range strings.FieldsFunc(help, func(r rune) bool { return strings.ContainsRune(" \t\n|:()", r) }) {
		listed[w] = true
	}
	for _, s := range gpusecmem.SchemeNames() {
		if !listed[s] {
			t.Errorf("secmemsim -h does not list scheme %s in:\n%s", s, help)
		}
	}
}
