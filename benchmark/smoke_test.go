package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestSmoke is `-smoke` under go test: all four stacks end to end on a
// 2,104-node network with 1 s windows. It asserts names, answers and the
// ledger's bookkeeping, never a timing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and serves four deployments")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxProcs))
	o := runOptions{seed: 1, seconds: 1, e2e: true, ledger: true, sz: smokeSizes, outDir: t.TempDir()}
	results, ok := suite(o, true)
	if len(results) != len(workloads) {
		t.Fatalf("%d of %d workloads ran", len(results), len(workloads))
	}
	for _, r := range results {
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", r.Workload, r.Attempted, r.Failed, r.Errors)
		}
		assertNames(t, r.Workload+" end-to-end", r.EndToEnd, endToEnd)
		assertNames(t, r.Workload+" per-layer", r.PerLayer, perLayer)
		for _, d := range endToEnd {
			if v := r.EndToEnd[d.Name]; !(v.Value > 0) || v.N == 0 {
				t.Errorf("%s: %s = %v over %d samples; an end-to-end metric is never 0", r.Workload, d.Name, v.Value, v.N)
			}
		}
		w, _ := findWorkload(r.Workload)
		assertTrace(t, filepath.Join(o.outDir, r.Workload+".trace.jsonl"), w)
		if _, err := os.Stat(filepath.Join(o.outDir, r.Workload+".json")); err != nil {
			t.Errorf("%s: no result file: %v", r.Workload, err)
		}
	}
	if !ok {
		t.Error("suite reported a failure")
	}
	if left, _ := filepath.Glob(filepath.Join(o.outDir, "tmp", "*")); len(left) != 0 {
		t.Errorf("scratch files left behind: %v", left)
	}
}

func assertNames(t *testing.T, what string, got metricSet, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
	}
	for _, d := range want {
		if v, ok := got[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or in unit %q, want %q", what, d.Name, v.Unit, d.Unit)
		}
	}
}

// assertTrace reads a trace file back: a header line, then spans whose
// parents are the seam above, every query id seen at every seam of the
// stack.
func assertTrace(t *testing.T, path string, w *workload) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Errorf("%s is empty", path)
		return
	}
	var head struct {
		Header runHeader `json:"header"`
	}
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil || head.Header.Workload != w.Name || head.Header.GoVersion == "" {
		t.Errorf("%s: bad header line %q: %v", path, sc.Text(), err)
	}
	seams := map[storeKind]int{storeMono: 4, storeSharded: 5, storeFleet: 6}[w.Store]
	perID := map[int]int{}
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		if s.End < s.Start || s.Name == "" {
			t.Errorf("%s: bad span %+v", path, s)
		}
		if (s.Parent == "") != (len(s.Name) > 7 && s.Name[:7] == "socket.") {
			t.Errorf("%s: span %s has parent %q; only the socket seam has none", path, s.Name, s.Parent)
		}
		perID[s.ID]++
	}
	if len(perID) == 0 {
		t.Errorf("%s holds no span", path)
	}
	for id, n := range perID {
		if n != seams {
			t.Errorf("%s: query %d has %d spans, want one per seam (%d)", path, id, n, seams)
			break
		}
	}
}
