// Command roadbench regenerates the paper's evaluation (§6): every table
// and figure, or a selected subset, printed as aligned text tables. It
// measures the paper's quantities (page reads, index size, update cost)
// over internal/bench; how fast the serving stack is belongs to the
// referee in benchmark/ (see BENCHMARK.json).
//
// Usage:
//
//	roadbench                  # run every experiment at default scale
//	roadbench -fig fig17a      # one experiment
//	roadbench -list            # list experiment IDs
//	roadbench -full            # paper-scale NA/SF (slower)
//	roadbench -queries 100 -trials 100   # the paper's workload sizes
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"road/internal/bench"
	"road/internal/version"
)

func main() {
	var (
		fig     = flag.String("fig", "", "experiment ID to run (default: all)")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		full    = flag.Bool("full", false, "run NA/SF at full paper scale")
		queries = flag.Int("queries", 50, "queries per data point (≥ 1)")
		trials  = flag.Int("trials", 20, "trials per update experiment (≥ 1)")
		budget  = flag.Float64("budget", 30, "soft per-approach seconds budget for update trials")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("roadbench"))
		return
	}
	if *queries < 1 || *trials < 1 {
		fmt.Fprintf(os.Stderr, "roadbench: -queries and -trials must be at least 1 (got %d, %d)\n", *queries, *trials)
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		for _, id := range bench.Order {
			fmt.Println(id)
		}
		return
	}

	opt := bench.DefaultOptions()
	opt.Full = opt.Full || *full
	opt.Queries = *queries
	opt.Trials = *trials
	opt.MaxApproachSeconds = *budget

	ids := bench.Order
	if *fig != "" {
		if _, ok := bench.Registry[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "roadbench: unknown experiment %q (use -list)\n", *fig)
			os.Exit(2)
		}
		ids = []string{*fig}
	}

	for _, id := range ids {
		start := time.Now()
		tbl, err := bench.Registry[id](opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "roadbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
}
