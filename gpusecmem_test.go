package gpusecmem

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"gpusecmem/internal/report"
)

func testKeys() Keys {
	var k Keys
	copy(k.Encryption[:], "test-encrypt-key")
	copy(k.MAC[:], "test-mac-key-abc")
	copy(k.Tree[:], "test-tree-key-ab")
	return k
}

func TestFunctionalAPICounterMode(t *testing.T) {
	mem, err := NewCounterModeMemory(64*1024, testKeys(), FullProtection)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128)
	copy(data, "hello secure world")
	if err := mem.WriteLine(0x400, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if err := mem.ReadLine(0x400, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip failed")
	}
	if bytes.Contains(mem.Backing().Snapshot(0x400, 128), data[:16]) {
		t.Fatal("plaintext at rest")
	}
}

func TestFunctionalAPIDirect(t *testing.T) {
	mem, err := NewDirectMemory(64*1024, testKeys(), FullProtection)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128)
	copy(data, "direct encryption")
	if err := mem.WriteLine(0, data); err != nil {
		t.Fatal(err)
	}
	// Tamper -> IntegrityError through the public API.
	raw := mem.Backing().Snapshot(0, 1)
	mem.Backing().Write(0, []byte{raw[0] ^ 1})
	err = mem.ReadLine(0, make([]byte, 128))
	if err == nil {
		t.Fatal("tamper undetected")
	}
	if !strings.Contains(err.Error(), "integrity violation") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestMetadataStorageTableII(t *testing.T) {
	ctr, mac, tree, err := MetadataStorage(4<<30, true)
	if err != nil {
		t.Fatal(err)
	}
	if ctr != 32<<20 || mac != 256<<20 {
		t.Fatalf("ctr=%d mac=%d", ctr, mac)
	}
	if mb := float64(tree) / (1 << 20); mb < 2.0 || mb > 2.3 {
		t.Fatalf("BMT %.2fMB", mb)
	}
	_, mac2, tree2, err := MetadataStorage(4<<30, false)
	if err != nil {
		t.Fatal(err)
	}
	if mac2 != 256<<20 {
		t.Fatalf("mac=%d", mac2)
	}
	if mb := float64(tree2) / (1 << 20); mb < 16.8 || mb > 17.3 {
		t.Fatalf("MT %.2fMB", mb)
	}
	if _, _, _, err := MetadataStorage(100, true); err == nil {
		t.Fatal("want error for unaligned size")
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	want := []string{
		"table1", "table2", "table3", "table4", "table5",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "table6", "table7",
		"fig13", "fig14", "fig15", "fig16", "fig17",
		"ablation-mergecap", "ablation-allocpolicy", "ablation-specverify",
		"ablation-lazyupdate", "ablation-sectoredl2", "ext-smartunified", "ext-selective",
		"ext-faultcoverage", "ext-latency", "ext-designspace",
	}
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if exps[i].Title == "" || exps[i].PaperFinding == "" || exps[i].Run == nil {
			t.Errorf("%s: incomplete descriptor", id)
		}
	}
	if _, ok := ExperimentByID("fig7"); !ok {
		t.Error("fig7 not found")
	}
	if _, ok := ExperimentByID("fig99"); ok {
		t.Error("fig99 should not exist")
	}
	if len(SortedIDs()) != len(want) {
		t.Error("SortedIDs length mismatch")
	}
}

func tinyContext() *Context {
	return NewContext(Options{Cycles: 2500, Benchmarks: []string{"nw", "fdtd2d"}})
}

func TestContextMemoizes(t *testing.T) {
	ctx := tinyContext()
	r1 := ctx.Run(BaselineConfig(), "nw")
	n := ctx.CachedRuns()
	r2 := ctx.Run(BaselineConfig(), "nw")
	if ctx.CachedRuns() != n {
		t.Fatal("second identical run was not memoized")
	}
	if r1 != r2 {
		t.Fatal("memoized run returned a different result object")
	}
	ctx.Run(SecureMemConfig(), "nw")
	if ctx.CachedRuns() != n+1 {
		t.Fatal("distinct config did not create a new run")
	}
}

func TestStaticExperimentsProduceTables(t *testing.T) {
	ctx := tinyContext()
	for _, id := range []string{"table1", "table2", "table3", "table5", "table6", "table7"} {
		e, _ := ExperimentByID(id)
		tables := e.Run(ctx)
		if len(tables) == 0 {
			t.Errorf("%s produced no tables", id)
			continue
		}
		for _, tab := range tables {
			if len(tab.Rows) == 0 {
				t.Errorf("%s produced an empty table", id)
			}
			var b strings.Builder
			if err := tab.WriteText(&b); err != nil {
				t.Errorf("%s render: %v", id, err)
			}
		}
	}
	if ctx.CachedRuns() != 0 {
		t.Error("static experiments should not simulate")
	}
}

func TestSimulatedExperimentShape(t *testing.T) {
	ctx := tinyContext()
	e, _ := ExperimentByID("fig16")
	tables := e.Run(ctx)
	if len(tables) != 1 {
		t.Fatalf("fig16 tables = %d", len(tables))
	}
	tab := tables[0]
	// benchmark column + 3 schemes; rows = 2 benchmarks + gmean.
	if len(tab.Headers) != 4 {
		t.Fatalf("headers: %v", tab.Headers)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	if label, ok := tab.Rows[2][0].(string); !ok || label != "gmean" {
		t.Fatalf("last row: %v", tab.Rows[2])
	}
	for r := range tab.Rows {
		for c := 1; c < len(tab.Headers); c++ {
			if v, ok := tab.Value(r, c); !ok || v <= 0 {
				t.Errorf("row %d col %d = %v: want a positive normalized IPC", r, c, tab.Rows[r][c])
			}
		}
	}
}

// TestFaultGroundTruthTablesIndependent: ext-faultcoverage's
// functional ground truth is computed once per process, but every run
// gets its own table. Two fresh Contexts see equal tables, and a row
// appended to (or a cell changed in) one table shows in no other
// table, including a later run's.
func TestFaultGroundTruthTablesIndependent(t *testing.T) {
	e, _ := ExperimentByID("ext-faultcoverage")
	opts := Options{Cycles: 300, Benchmarks: []string{"fdtd2d"}}
	groundTruth := func(ctx *Context) *report.Table {
		tables := e.Run(ctx)
		if len(tables) != 2 {
			t.Fatalf("ext-faultcoverage tables = %d, want 2", len(tables))
		}
		return tables[1]
	}
	c1 := NewContext(opts)
	first, second := groundTruth(c1), groundTruth(NewContext(opts))
	if len(first.Rows) != 4 {
		t.Fatalf("ground truth rows = %d, want 4", len(first.Rows))
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("ground truth differs between contexts:\n%v\n%v", first.Rows, second.Rows)
	}
	want := fmt.Sprint(second.Rows)
	first.AddRow("tampered", "data", 0, 0, "appended")
	first.Rows[0][0] = "tampered"
	third := groundTruth(c1)
	for name, tab := range map[string]*report.Table{"second": second, "third": third} {
		if got := fmt.Sprint(tab.Rows); got != want {
			t.Errorf("%s table sees the first table's edits:\n%s\nwant\n%s", name, got, want)
		}
	}
}

// TestMeasuredCellsAreNumbers: every measured cell of the
// normalized-IPC, share and miss-rate tables reads back as a number
// (only "-" placeholders and label columns are text), and
// GmeanNormalizedIPC is the figure tables' gmean cell.
func TestMeasuredCellsAreNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a dozen figures")
	}
	labels := map[string]bool{"benchmark": true, "scheme": true, "metadata": true, "type": true}
	ctx := NewContext(Options{Cycles: 1500, Benchmarks: []string{"nw", "fdtd2d"}})
	figs := map[string]*report.Table{}
	for _, e := range Experiments() {
		switch {
		case strings.HasPrefix(e.ID, "ablation-"), e.ID == "ext-selective",
			e.ID == "ext-smartunified", e.ID == "ext-designspace":
		case strings.HasPrefix(e.ID, "fig") && e.ID != "fig10" && e.ID != "fig11":
		default:
			continue
		}
		tables := e.Run(ctx)
		figs[e.ID] = tables[0]
		for _, tab := range tables {
			for r, row := range tab.Rows {
				for c, cell := range row {
					if _, ok := tab.Value(r, c); !ok && !labels[tab.Headers[c]] && cell != "-" {
						t.Errorf("%s %q row %d col %q: %#v is not a number", e.ID, tab.Title, r, tab.Headers[c], cell)
					}
				}
			}
		}
	}
	for _, g := range []struct {
		fig string
		col int
		cfg Config
	}{{"fig3", 1, cfgSecureNoMSHR()}, {"fig16", 2, cfgCtr()}, {"fig17", 1, SecureMemConfig()}} {
		tab := figs[g.fig]
		cell, _ := tab.Value(len(tab.Rows)-1, g.col)
		if got := GmeanNormalizedIPC(ctx, g.cfg); got != cell {
			t.Errorf("%s %s: GmeanNormalizedIPC = %v, gmean cell %v", g.fig, tab.Headers[g.col], got, cell)
		}
	}
}

func TestReuseExperimentsRun(t *testing.T) {
	ctx := NewContext(Options{Cycles: 2500, Benchmarks: []string{"fdtd2d"}})
	for _, id := range []string{"fig10", "fig11"} {
		e, _ := ExperimentByID(id)
		tables := e.Run(ctx)
		if len(tables) != 1 || len(tables[0].Rows) == 0 {
			t.Fatalf("%s produced no data", id)
		}
	}
	// Both figures share the same profiled run.
	if ctx.CachedRuns() > 2 {
		t.Fatalf("reuse figures did not share runs: %d", ctx.CachedRuns())
	}
}

func TestGmeanNormalizedIPC(t *testing.T) {
	ctx := tinyContext()
	g := GmeanNormalizedIPC(ctx, BaselineConfig())
	if g < 0.999 || g > 1.001 {
		t.Fatalf("baseline gmean vs itself = %f", g)
	}
	gs := GmeanNormalizedIPC(ctx, SecureMemConfig())
	if gs >= 1 || gs <= 0 {
		t.Fatalf("secure gmean = %f", gs)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Cycles == 0 || len(o.Benchmarks) != 14 {
		t.Fatalf("defaults: %+v", o)
	}
}

func TestSimulatePublicAPI(t *testing.T) {
	cfg := BaselineConfig()
	cfg.MaxCycles = 1500
	r, err := Simulate(cfg, "fdtd2d")
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC() <= 0 {
		t.Fatal("no progress")
	}
	if len(Benchmarks()) != 14 {
		t.Fatal("benchmark list")
	}
}

// renderDigestPath pins the sha256 of every experiment's render in
// each output format at TestEveryExperimentRuns' context, so a change
// in how any cell prints fails the suite. After an intentional output
// change, regenerate with:
//
//	go test -run TestEveryExperimentRuns -update-golden
const renderDigestPath = "testdata/render_digests.json"

// TestEveryExperimentRuns drives the complete registry end to end on
// a minimal context: every experiment must produce non-empty tables,
// and each format's render must match its pinned digest.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	want := map[string]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(renderDigestPath)
		if err != nil {
			t.Fatalf("missing render digests (generate with -update-golden): %v", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	ctx := NewContext(Options{Cycles: 1500, Benchmarks: []string{"fdtd2d"}})
	for _, e := range Experiments() {
		tables := e.Run(ctx)
		if len(tables) == 0 {
			t.Errorf("%s: no tables", e.ID)
			continue
		}
		for _, tab := range tables {
			if len(tab.Headers) == 0 || len(tab.Rows) == 0 {
				t.Errorf("%s: empty table %q", e.ID, tab.Title)
			}
		}
		for _, format := range report.Formats {
			var b bytes.Buffer
			for _, tab := range tables {
				if err := tab.Write(&b, format); err != nil {
					t.Errorf("%s: %s render: %v", e.ID, format, err)
				}
			}
			key := e.ID + "/" + format
			sum := sha256.Sum256(b.Bytes())
			got[key] = hex.EncodeToString(sum[:])
			if !*updateGolden && got[key] != want[key] {
				t.Errorf("%s: render digest %.12s, pinned %.12s", key, got[key], want[key])
			}
		}
	}
	if ctx.CachedRuns() == 0 {
		t.Error("sweep simulated nothing")
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(renderDigestPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", renderDigestPath, len(got))
	}
}
