package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func wantManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json and the tables the
// program emits from to each other, and both to the contract's limits.
func TestManifestMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(wantManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the tables in metrics.go and workload.go; run `go test -run TestManifest -update`")
	}

	m := wantManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range m.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		checkName(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == lower
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		checkName(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
}

func TestNearestRankMedianOfSlices(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median of 3 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median of 4 = %v, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}

	// Five 1 s slices of 100 knn samples each; slice i holds latencies
	// (i+1)*1..100 µs, so its nearest-rank p99 is (i+1)*99 and its p50 is
	// (i+1)*50. Samples of another kind must not count.
	var samples []sample
	for i := 0; i < numSlices; i++ {
		for j := 1; j <= 100; j++ {
			at := time.Duration(i)*time.Second + time.Duration(j)*time.Millisecond
			samples = append(samples, sample{kind: opKNN, lat: time.Duration((i+1)*j) * time.Microsecond, at: at})
			samples = append(samples, sample{kind: opPath, lat: time.Hour, at: at})
		}
	}
	wall := numSlices * time.Second
	if got, n := slicedPercentile(samples, opKNN, wall, 0.99); got != 3*99 || n != 500 {
		t.Errorf("sliced p99 = %v over %d, want %v over 500", got, n, 3*99)
	}
	if got, _ := slicedPercentile(samples, opKNN, wall, 0.50); got != 3*50 {
		t.Errorf("sliced p50 = %v, want %v", got, 3*50)
	}
	// One slice ten times slower than the rest moves a whole-window p99
	// but not the median of slices.
	for i := range samples {
		if samples[i].kind == opKNN && samples[i].at < time.Second {
			samples[i].lat *= 1000
		}
	}
	if got, _ := slicedPercentile(samples, opKNN, wall, 0.99); got != 4*99 {
		t.Errorf("sliced p99 with one wild slice = %v, want %v", got, 4*99)
	}
	if got, n := slicedPercentile(nil, opKNN, wall, 0.99); got != 0 || n != 0 {
		t.Errorf("sliced p99 of nothing = %v over %d", got, n)
	}
}
