package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"road/internal/dataset"
)

// tinyOptions shrinks every experiment so the full registry can run inside
// the unit-test budget.
func tinyOptions() Options {
	return Options{Queries: 3, Trials: 2, MaxApproachSeconds: 5}
}

func TestCases(t *testing.T) {
	fast := Cases(false)
	if len(fast) != 3 || fast[0].Name != "CA" {
		t.Fatalf("Cases(false) = %+v", fast)
	}
	full := Cases(true)
	if full[1].Spec.Nodes != dataset.NA().Nodes {
		t.Fatal("Cases(true) does not use full NA")
	}
	if fast[1].Spec.Nodes >= full[1].Spec.Nodes {
		t.Fatal("scaled NA not smaller than full NA")
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{Title: "T", Columns: []string{"a", "bbbb"}}
	tbl.AddRow("x", "y")
	tbl.AddRow("longcell", "z")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "T") || !strings.Contains(out, "longcell") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, dashes, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtDur(1500 * time.Millisecond); got != "1.50s" {
		t.Fatalf("fmtDur = %q", got)
	}
	if got := fmtDur(2500 * time.Microsecond); got != "2.50ms" {
		t.Fatalf("fmtDur = %q", got)
	}
	if got := fmtDur(900 * time.Nanosecond); got != "0.9µs" {
		t.Fatalf("fmtDur = %q", got)
	}
	if got := fmtBytes(3 << 20); got != "3.0MB" {
		t.Fatalf("fmtBytes = %q", got)
	}
	if got := fmtBytes(2048); got != "2.0KB" {
		t.Fatalf("fmtBytes = %q", got)
	}
	if got := fmtBytes(12); got != "12B" {
		t.Fatalf("fmtBytes = %q", got)
	}
}

func TestCheckAgreement(t *testing.T) {
	ok := map[string][]float64{"ROAD": {1, 2}, "NetExp": {1, 2 + 1e-12}}
	if err := checkAgreement(ok); err != nil {
		t.Fatalf("agreement rejected: %v", err)
	}
	badLen := map[string][]float64{"ROAD": {1}, "NetExp": {1, 2}}
	if err := checkAgreement(badLen); err == nil {
		t.Fatal("length mismatch accepted")
	}
	badVal := map[string][]float64{"ROAD": {1, 2}, "NetExp": {1, 3}}
	if err := checkAgreement(badVal); err == nil {
		t.Fatal("value mismatch accepted")
	}
}

func TestTrialsFor(t *testing.T) {
	opt := Options{MaxApproachSeconds: 1}
	if got := trialsFor(opt, 0, 50); got != 50 {
		t.Fatalf("zero estimate: %d", got)
	}
	if got := trialsFor(opt, 100*time.Millisecond, 50); got != 10 {
		t.Fatalf("budgeted trials = %d, want 10", got)
	}
	if got := trialsFor(opt, 10*time.Second, 50); got != 1 {
		t.Fatalf("over-budget trials = %d, want 1", got)
	}
}

func TestBuildApproachUnknown(t *testing.T) {
	g := dataset.MustGenerate(dataset.Spec{Name: "t", Nodes: 64, Edges: 70, Seed: 1})
	objects := dataset.PlaceUniform(g, 5, 2)
	if _, err := BuildApproach("Nope", g, objects, 2); err == nil {
		t.Fatal("unknown approach accepted")
	}
}

func TestApproachesAgreeOnSmallNetwork(t *testing.T) {
	g := dataset.MustGenerate(dataset.Spec{Name: "t", Nodes: 300, Edges: 340, Seed: 3})
	objects := dataset.PlaceUniform(g, 20, 4)
	approaches, err := buildAll(g, objects, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.RandomNodes(g, 10, 5)
	for _, k := range []int{1, 5} {
		per := make(map[string][][]float64)
		for _, name := range ApproachNames {
			_, _, dists := measureKNN(approaches[name], queries, k)
			per[name] = dists
		}
		if err := agreementAcross(per, len(queries)); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	diam := g.EstimateDiameter()
	per := make(map[string][][]float64)
	for _, name := range ApproachNames {
		_, _, dists := measureRange(approaches[name], queries, diam*0.1)
		per[name] = dists
	}
	if err := agreementAcross(per, len(queries)); err != nil {
		t.Fatalf("range: %v", err)
	}
}

// TestRegistryRunsTiny executes the cheap experiments end-to-end with tiny
// workloads so regressions in any runner surface in unit tests. The CA-full
// sweeps (fig13, fig17b, fig18b build 20 indices over 21k nodes) are
// exercised by the root bench suite instead.
func TestRegistryRunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke skipped in -short")
	}
	opt := tinyOptions()
	for _, id := range []string{"fig11", "fig17a", "fig19", "ablation-pruning", "ablation-partition"} {
		run, ok := Registry[id]
		if !ok {
			t.Fatalf("experiment %s missing from registry", id)
		}
		tbl, err := run(opt)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestOrderCoversRegistry(t *testing.T) {
	if len(Order) != len(Registry) {
		t.Fatalf("Order has %d entries, Registry %d", len(Order), len(Registry))
	}
	for _, id := range Order {
		if _, ok := Registry[id]; !ok {
			t.Fatalf("Order entry %s not in Registry", id)
		}
	}
}

// TestRegistryRejectsEmptyWorkload: per-query and per-trial averages
// divide by these counts, so a registry runner must refuse them with an
// error (roadbench -queries 0 / -trials 0 used to panic).
func TestRegistryRejectsEmptyWorkload(t *testing.T) {
	for _, tc := range []struct {
		name            string
		queries, trials int
	}{
		{"zero queries", 0, 1},
		{"zero trials", 1, 0},
		{"negative queries", -3, 1},
		{"negative trials", 1, -3},
	} {
		opt := tinyOptions()
		opt.Queries, opt.Trials = tc.queries, tc.trials
		for _, id := range Order {
			if tbl, err := Registry[id](opt); err == nil {
				t.Errorf("%s: %s returned a table (%d rows) instead of an error", tc.name, id, len(tbl.Rows))
			}
		}
	}
}
