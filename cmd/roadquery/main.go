// Command roadquery builds a ROAD index over a synthetic network and
// answers ad-hoc queries from the command line — a minimal interactive
// demonstration of the framework.
//
// Usage:
//
//	roadquery -net CA -objects 100 -knn 5 -from 1234
//	roadquery -net CA -objects 100 -range 0.1 -from 1234
//	roadquery -net CA -objects 100 -knn 5 -json      # machine-readable
//
// -from defaults to a random node; -range is a fraction of the network
// diameter. -json switches the answer to the JSON encoding roadd serves.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"road"
	"road/internal/dataset"
	"road/internal/graph"
	"road/internal/server"
	"road/internal/version"
)

// logf writes progress chatter; in -json mode it goes to stderr so stdout
// stays a single machine-readable document.
var logf = func(format string, args ...any) { fmt.Printf(format, args...) }

func main() {
	var (
		load    = flag.String("load", "", "load network+objects from a roadgen CSV file instead of generating")
		net     = flag.String("net", "CA", "network: CA, NA or SF")
		scale   = flag.Float64("scale", 1, "network scale factor (0,1]")
		objects = flag.Int("objects", 100, "objects placed uniformly")
		knn     = flag.Int("knn", 0, "k for a kNN query")
		rangeFr = flag.Float64("range", 0, "range radius as a fraction of the diameter")
		from    = flag.Int("from", -1, "query node (default: random)")
		attr    = flag.Int("attr", 0, "attribute predicate (0 = any)")
		shards  = flag.Int("shards", 1, "answer through K region shards behind a query router (power of two ≥ 2; 1 = single index)")
		levels  = flag.Int("levels", 0, "Rnet hierarchy depth (0 = default)")
		seed    = flag.Int64("seed", 1, "placement/query seed")
		jsonOut = flag.Bool("json", false, "emit machine-readable JSON (roadd's wire encoding)")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("roadquery"))
		return
	}

	if *jsonOut {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format, args...) }
	}

	var g *graph.Graph
	var set *graph.ObjectSet
	if *load != "" {
		file, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roadquery:", err)
			os.Exit(1)
		}
		g, set, err = dataset.ReadCSV(file)
		file.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "roadquery:", err)
			os.Exit(1)
		}
		logf("loaded %s (%d nodes, %d edges, %d objects)\n",
			*load, g.NumNodes(), g.NumEdges(), set.Len())
		if set.Len() == 0 {
			set = dataset.PlaceUniform(g, *objects, *seed, 0, 1, 2, 3)
		}
	} else {
		var spec dataset.Spec
		switch *net {
		case "CA":
			spec = dataset.CA()
		case "NA":
			spec = dataset.NA()
		case "SF":
			spec = dataset.SF()
		default:
			fmt.Fprintf(os.Stderr, "roadquery: unknown network %q\n", *net)
			os.Exit(2)
		}
		if *scale != 1 {
			spec = dataset.Scaled(spec, *scale)
		}
		logf("generating %s (%d nodes, %d edges)...\n", spec.Name, spec.Nodes, spec.Edges)
		g = dataset.MustGenerate(spec)
		set = dataset.PlaceUniform(g, *objects, *seed, 0, 1, 2, 3)
	}

	qnode := graph.NodeID(*from)
	if *from < 0 {
		qnode = dataset.RandomNodes(g, 1, *seed+7)[0]
	}

	// Resolve the range radius before the graph is adopted by an index.
	var rangeRadius float64
	if *rangeFr > 0 {
		rangeRadius = g.EstimateDiameter() * *rangeFr
	}

	// Both deployment shapes land behind the same road.Store interface;
	// everything below this block is shape-agnostic v1 API.
	var store road.Store
	if *shards > 1 {
		logf("building %d region shards...\n", *shards)
		start := time.Now()
		db, err := road.OpenShardedWithObjects(road.FromGraph(g), set, road.Options{
			Levels: *levels,
			Seed:   *seed,
		}, *shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roadquery:", err)
			os.Exit(1)
		}
		logf("built in %v: %d shards, index ≈ %d KB\n",
			time.Since(start).Round(time.Millisecond), db.NumShards(), db.IndexSizeBytes()/1024)
		store = db
	} else {
		logf("building ROAD index...\n")
		start := time.Now()
		db, err := road.OpenWithObjects(road.FromGraph(g), set, road.Options{
			Levels: *levels,
			Seed:   *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "roadquery:", err)
			os.Exit(1)
		}
		h := db.Framework().Hierarchy()
		logf("built in %v: %d Rnets, %d shortcuts, index ≈ %d KB\n",
			time.Since(start).Round(time.Millisecond), h.NumRnets(),
			h.ShortcutCount(), db.IndexSizeBytes()/1024)
		store = db
	}

	ctx := context.Background()
	attrOpt := road.WithAttr(int32(*attr))
	switch {
	case *knn > 0:
		start := time.Now()
		res, st, err := store.KNNContext(ctx, road.NewKNN(qnode, *knn, attrOpt))
		if err != nil {
			fmt.Fprintln(os.Stderr, "roadquery:", err)
			os.Exit(1)
		}
		report(res, st, time.Since(start), qnode, *jsonOut)
	case *rangeFr > 0:
		logf("range radius: %.3f\n", rangeRadius)
		start := time.Now()
		res, st, err := store.WithinContext(ctx, road.NewWithin(qnode, rangeRadius, attrOpt))
		if err != nil {
			fmt.Fprintln(os.Stderr, "roadquery:", err)
			os.Exit(1)
		}
		report(res, st, time.Since(start), qnode, *jsonOut)
	default:
		fmt.Fprintln(os.Stderr, "roadquery: pass -knn K or -range FRACTION")
		os.Exit(2)
	}
}

func report(res []road.Result, st road.Stats, elapsed time.Duration, q graph.NodeID, jsonOut bool) {
	if jsonOut {
		out := server.QueryResponse{
			Node:      q,
			Results:   server.EncodeResults(res),
			Stats:     server.EncodeStats(st),
			ElapsedUS: elapsed.Microseconds(),
		}
		json.NewEncoder(os.Stdout).Encode(out)
		return
	}
	fmt.Printf("query node %d -> %d results in %v (%d nodes settled, %d Rnets bypassed)\n",
		q, len(res), elapsed.Round(time.Microsecond), st.NodesPopped, st.RnetsBypassed)
	for i, r := range res {
		fmt.Printf("  %2d. object %d on edge %d (attr %d) at network distance %.4f\n",
			i+1, r.Object.ID, r.Object.Edge, r.Object.Attr, r.Dist)
	}
}
