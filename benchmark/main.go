// Command benchmark is this repository's referee: four fixed workloads
// over the three deployment shapes, seven end-to-end metrics measured by a
// closed loop of two clients over a loopback socket, and a per-seam
// latency ledger taken from outside every layer. README.md documents the
// workloads, the metrics and the reasoning; BENCHMARK.json at the
// repository root is the contract the driver reads.
//
//	go run . -seed 1                     every workload: end-to-end run, then ledger
//	go run . -aa                         the suite twice; gaps against the bounds
//	go run . -smoke                      every stack end to end in seconds, no timings asserted
//	go run . --workload ca_serve --seed 3 --seconds 15 --trace 0    one driver run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const defaultSeconds = 15

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the driver's result line (default: the whole suite)")
		seed    = flag.Int64("seed", 1, "seeds every generated input")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the ledger and reports the per-layer metrics")
		aa      = flag.Bool("aa", false, "run the suite twice on this build and compare every end-to-end metric against its bound")
		smoke   = flag.Bool("smoke", false, "tiny network, 1 s windows: proves every stack runs, asserts no timing")
	)
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)
	os.Exit(run(*name, *seed, *seconds, *trace, *aa, *smoke))
}

func run(name string, seed int64, seconds float64, trace int, aa, smoke bool) int {
	o := runOptions{seed: seed, seconds: seconds, sz: fullSizes, outDir: outDir()}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	switch {
	case name != "":
		w, err := findWorkload(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		o.e2e, o.ledger = trace == 0, trace != 0
		return driverRun(w, o)
	case aa:
		o.e2e = true
		return aaRun(o)
	default:
		o.e2e, o.ledger = true, true
		if smoke {
			o.seconds, o.sz = 1, smokeSizes
		}
		results, ok := suite(o, smoke)
		for _, r := range results {
			report(os.Stdout, r)
		}
		if !ok {
			return 1
		}
		return 0
	}
}

// outDir is where results, traces and scratch files go: benchmark/out,
// whether the program is started from the repository root or from its own
// directory.
func outDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// suite runs every workload once and writes each result file. It reports
// whether every workload ran with no failure.
func suite(o runOptions, smoke bool) ([]*runResult, bool) {
	ok := true
	var results []*runResult
	for i := range workloads {
		w := workloads[i]
		if smoke {
			w.Net, w.Objects = smokeNet()
			w.LedgerPrewarm = min(w.LedgerPrewarm, 64)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s (seed %d, %gs window)...\n", w.Name, o.seed, o.seconds)
		r, err := runWorkload(&w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			ok = false
			continue
		}
		if err := writeResult(&w, o, r); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			ok = false
		}
		ok = ok && r.Failed == 0
		results = append(results, r)
	}
	return results, ok
}

// driverRun is one run under the builder's contract: the last line of
// standard output is the result object.
func driverRun(w *workload, o runOptions) int {
	r, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := writeResult(w, o, r); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	report(os.Stdout, r)
	set := r.EndToEnd
	if o.ledger {
		set = r.PerLayer
	}
	type driverValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]driverValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]driverValue{}}
	for k, v := range set {
		line.Metrics[k] = driverValue{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	if r.Failed > 0 {
		return 1
	}
	return 0
}

// report prints every metric of a run by name, with unit and sample count.
func report(f *os.File, r *runResult) {
	fmt.Fprintf(f, "== %s: attempted %d, failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(f, "   FAILED %s\n", e)
	}
	for _, set := range []metricSet{r.EndToEnd, r.PerLayer} {
		names := make([]string, 0, len(set))
		for k := range set {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v := set[k]
			fmt.Fprintf(f, "   %-32s %14.4f %-6s n=%d\n", k, v.Value, v.Unit, v.N)
		}
	}
}

// runHeader is stamped into every result and trace file.
type runHeader struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Clients    int     `json:"clients"`
	Network    string  `json:"network"`
	Objects    int     `json:"objects"`
	K          int     `json:"k"`
	Radius     float64 `json:"radius"`
	Mix        [3]int  `json:"mix_knn_within_path"`
	Zipf       bool    `json:"zipf"`
	WarmupS    float64 `json:"warmup_s"`
	Time       string  `json:"time"`
}

func header(w *workload, o runOptions) runHeader {
	h := runHeader{
		Workload: w.Name, Seed: o.seed, Seconds: o.seconds,
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: "unknown", Clients: numClients, Network: w.Net.Name, Objects: w.Objects, K: w.K, Radius: w.Radius,
		Mix: w.Mix, Zipf: w.Zipf, WarmupS: o.sz.warmup.Seconds(), Time: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func writeResult(w *workload, o runOptions, r *runResult) error {
	b, err := json.MarshalIndent(struct {
		Header runHeader  `json:"header"`
		Result *runResult `json:"result"`
	}{header(w, o), r}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, w.Name+".json"), append(b, '\n'), 0o644)
}

// setupFloor is the absolute slack of setup_s under -aa: a sub-second
// set-up moves by a scheduler hiccup, and 25% of 0.2 s is 50 ms.
const setupFloor = 0.2

// aaRun runs the suite twice on the same build and holds every end-to-end
// metric of every workload to its own bound, either way round: with
// identical code a large gap is noise whichever run was the slow one.
func aaRun(o runOptions) int {
	a, okA := suite(o, false)
	b, okB := suite(o, false)
	if !okA || !okB || len(a) != len(b) {
		return 1
	}
	code := 0
	fmt.Printf("%-14s %-18s %14s %14s %8s %7s\n", "workload", "metric", "run A", "run B", "gap", "bound")
	for i := range a {
		for _, d := range endToEnd {
			va, vb := a[i].EndToEnd[d.Name].Value, b[i].EndToEnd[d.Name].Value
			gap := math.Abs(vb-va) / va
			verdict := ""
			if gap > d.Bound && !(d.Name == "setup_s" && math.Abs(vb-va) < setupFloor) {
				verdict, code = "  EXCEEDS", 1
			}
			fmt.Printf("%-14s %-18s %14.3f %14.3f %7.1f%% %6.0f%%%s\n", a[i].Workload, d.Name, va, vb, 100*gap, 100*d.Bound, verdict)
		}
	}
	return code
}
