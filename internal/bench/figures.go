package bench

import (
	"fmt"
	"time"

	"road/internal/core"
	"road/internal/dataset"
	"road/internal/graph"
	"road/internal/partition"
)

// Fig11 reproduces the 3NN illustration of Figure 11: a single 3NN query
// over CA with 5 objects, reporting per-approach time, page reads and the
// traversal footprint.
func Fig11(opt Options) (*Table, error) {
	cs := Cases(opt.Full)[0] // CA
	g := dataset.MustGenerate(cs.Spec)
	objects := dataset.PlaceUniform(g, 5, 11)
	approaches, err := buildAll(g, objects, cs.Levels)
	if err != nil {
		return nil, err
	}
	q := dataset.RandomNodes(g, 1, 7)[0]
	t := &Table{
		Title:   "Figure 11 — 3NN query illustration (CA, |O|=5)",
		Columns: []string{"approach", "time", "page faults"},
	}
	results := make(map[string][]float64)
	for _, name := range ApproachNames {
		a := approaches[name]
		a.DropCache()
		start := time.Now()
		ds, io := a.KNN(q, 3)
		elapsed := time.Since(start)
		results[name] = ds
		t.AddRow(name, fmtDur(elapsed), fmt.Sprintf("%d", io.Faults))
	}
	if err := checkAgreement(results); err != nil {
		return nil, fmt.Errorf("fig11 agreement: %w", err)
	}
	return t, nil
}

// Fig13 reproduces Figure 13: index construction time and size on CA as
// the object count sweeps 10..1000 — DistIdx explodes, the others stay
// flat.
func Fig13(opt Options) (*Table, error) {
	cs := Cases(opt.Full)[0]
	g := dataset.MustGenerate(cs.Spec)
	t := &Table{
		Title:   "Figure 13 — index construction time and size vs |O| (CA)",
		Columns: []string{"|O|", "approach", "index time", "index size"},
	}
	for _, numObjects := range []int{10, 50, 100, 500, 1000} {
		objects := dataset.PlaceUniform(g, numObjects, int64(numObjects))
		for _, name := range ApproachNames {
			a, err := BuildApproach(name, g, objects, cs.Levels)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%d", numObjects), name,
				fmtDur(a.BuildTime()), fmtBytes(a.IndexSizeBytes()))
		}
	}
	return t, nil
}

// Fig14 reproduces Figure 14: index construction time and size across
// networks at |O|=100.
func Fig14(opt Options) (*Table, error) {
	t := &Table{
		Title:   "Figure 14 — index construction time and size vs network (|O|=100)",
		Columns: []string{"network", "approach", "index time", "index size"},
	}
	for _, cs := range Cases(opt.Full) {
		g := dataset.MustGenerate(cs.Spec)
		objects := dataset.PlaceUniform(g, 100, 14)
		for _, name := range ApproachNames {
			a, err := BuildApproach(name, g, objects, cs.Levels)
			if err != nil {
				return nil, err
			}
			t.AddRow(cs.Name, name, fmtDur(a.BuildTime()), fmtBytes(a.IndexSizeBytes()))
		}
	}
	return t, nil
}

// Fig15 reproduces Figure 15: average object deletion and insertion time
// per network (delete a random object, re-insert at a random location).
func Fig15(opt Options) (*Table, error) {
	t := &Table{
		Title:   "Figure 15 — object update time (|O|=100)",
		Columns: []string{"network", "approach", "delete avg", "insert avg", "trials"},
	}
	for _, cs := range Cases(opt.Full) {
		g := dataset.MustGenerate(cs.Spec)
		objects := dataset.PlaceUniform(g, 100, 15)
		for _, name := range ApproachNames {
			a, err := BuildApproach(name, g, objects, cs.Levels)
			if err != nil {
				return nil, err
			}
			// Estimate one trial to budget the loop (DistIdx is slow).
			all := a.Objects().All()
			est := time.Now()
			a.DeleteObject(all[0].ID)
			e0 := a.Graph().Edge(all[0].Edge)
			a.InsertObject(all[0].Edge, e0.Weight/2)
			perTrial := time.Since(est)
			trials := trialsFor(opt, perTrial, opt.Trials)

			edges := randomEdges(a.Graph(), trials, 151)
			var delTotal, insTotal time.Duration
			for i := 0; i < trials; i++ {
				objs := a.Objects().All()
				victim := objs[i%len(objs)]
				start := time.Now()
				a.DeleteObject(victim.ID)
				delTotal += time.Since(start)
				e := a.Graph().Edge(edges[i])
				start = time.Now()
				if _, err := a.InsertObject(edges[i], e.Weight/2); err != nil {
					return nil, err
				}
				insTotal += time.Since(start)
			}
			t.AddRow(cs.Name, name,
				fmtDur(delTotal/time.Duration(trials)),
				fmtDur(insTotal/time.Duration(trials)),
				fmt.Sprintf("%d", trials))
		}
	}
	return t, nil
}

// Fig16 reproduces Figure 16: average edge deletion and insertion time per
// network (remove a random edge, then restore it).
func Fig16(opt Options) (*Table, error) {
	t := &Table{
		Title:   "Figure 16 — network update time (|O|=100)",
		Columns: []string{"network", "approach", "edge delete avg", "edge insert avg", "trials"},
	}
	for _, cs := range Cases(opt.Full) {
		g := dataset.MustGenerate(cs.Spec)
		objects := dataset.PlaceUniform(g, 100, 16)
		for _, name := range ApproachNames {
			a, err := BuildApproach(name, g, objects, cs.Levels)
			if err != nil {
				return nil, err
			}
			candidates := safeEdges(a, opt.Trials+8, 161)
			if len(candidates) == 0 {
				return nil, fmt.Errorf("no removable edges on %s", cs.Name)
			}
			// Budget with one estimated trial.
			est := time.Now()
			if err := a.DeleteEdge(candidates[0]); err != nil {
				return nil, err
			}
			if err := a.RestoreEdge(candidates[0]); err != nil {
				return nil, err
			}
			perTrial := time.Since(est)
			trials := trialsFor(opt, perTrial, opt.Trials)
			if trials > len(candidates) {
				trials = len(candidates)
			}
			var delTotal, insTotal time.Duration
			for i := 0; i < trials; i++ {
				e := candidates[i]
				start := time.Now()
				if err := a.DeleteEdge(e); err != nil {
					return nil, err
				}
				delTotal += time.Since(start)
				start = time.Now()
				if err := a.RestoreEdge(e); err != nil {
					return nil, err
				}
				insTotal += time.Since(start)
			}
			t.AddRow(cs.Name, name,
				fmtDur(delTotal/time.Duration(trials)),
				fmtDur(insTotal/time.Duration(trials)),
				fmt.Sprintf("%d", trials))
		}
	}
	return t, nil
}

// safeEdges returns object-free edges whose endpoints keep other
// connections, so delete/restore cycles cannot strand objects or nodes.
func safeEdges(a Approach, n int, seed int64) []graph.EdgeID {
	g := a.Graph()
	var out []graph.EdgeID
	for _, e := range randomEdges(g, n*4, seed) {
		ed := g.Edge(e)
		if g.Degree(ed.U) > 1 && g.Degree(ed.V) > 1 && len(a.Objects().OnEdge(e)) == 0 {
			out = append(out, e)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// Fig17a reproduces Figure 17(a): kNN processing time vs k on CA.
func Fig17a(opt Options) (*Table, error) {
	cs := Cases(opt.Full)[0]
	g := dataset.MustGenerate(cs.Spec)
	objects := dataset.PlaceUniform(g, 100, 17)
	approaches, err := buildAll(g, objects, cs.Levels)
	if err != nil {
		return nil, err
	}
	queries := dataset.RandomNodes(g, opt.Queries, 171)
	t := &Table{
		Title:   "Figure 17(a) — kNN processing time vs k (CA, |O|=100)",
		Columns: []string{"k", "approach", "time/query", "faults/query"},
	}
	for _, k := range []int{1, 5, 10} {
		per := make(map[string][][]float64)
		for _, name := range ApproachNames {
			mean, pages, dists := measureKNN(approaches[name], queries, k)
			per[name] = dists
			t.AddRow(fmt.Sprintf("%d", k), name, fmtDur(mean), fmt.Sprintf("%.1f", pages))
		}
		if err := agreementAcross(per, len(queries)); err != nil {
			return nil, fmt.Errorf("fig17a k=%d: %w", k, err)
		}
	}
	return t, nil
}

// Fig17b reproduces Figure 17(b): kNN time vs object cardinality on CA.
func Fig17b(opt Options) (*Table, error) {
	cs := Cases(opt.Full)[0]
	g := dataset.MustGenerate(cs.Spec)
	queries := dataset.RandomNodes(g, opt.Queries, 172)
	t := &Table{
		Title:   "Figure 17(b) — kNN processing time vs |O| (CA, k=5)",
		Columns: []string{"|O|", "approach", "time/query", "faults/query"},
	}
	for _, numObjects := range []int{10, 50, 100, 500, 1000} {
		objects := dataset.PlaceUniform(g, numObjects, int64(numObjects)*3)
		approaches, err := buildAll(g, objects, cs.Levels)
		if err != nil {
			return nil, err
		}
		per := make(map[string][][]float64)
		for _, name := range ApproachNames {
			mean, pages, dists := measureKNN(approaches[name], queries, 5)
			per[name] = dists
			t.AddRow(fmt.Sprintf("%d", numObjects), name, fmtDur(mean), fmt.Sprintf("%.1f", pages))
		}
		if err := agreementAcross(per, len(queries)); err != nil {
			return nil, fmt.Errorf("fig17b |O|=%d: %w", numObjects, err)
		}
	}
	return t, nil
}

// Fig17c reproduces Figure 17(c): kNN time per network.
func Fig17c(opt Options) (*Table, error) {
	t := &Table{
		Title:   "Figure 17(c) — kNN processing time vs network (|O|=100, k=5)",
		Columns: []string{"network", "approach", "time/query", "faults/query"},
	}
	for _, cs := range Cases(opt.Full) {
		g := dataset.MustGenerate(cs.Spec)
		objects := dataset.PlaceUniform(g, 100, 173)
		approaches, err := buildAll(g, objects, cs.Levels)
		if err != nil {
			return nil, err
		}
		queries := dataset.RandomNodes(g, opt.Queries, 174)
		per := make(map[string][][]float64)
		for _, name := range ApproachNames {
			mean, pages, dists := measureKNN(approaches[name], queries, 5)
			per[name] = dists
			t.AddRow(cs.Name, name, fmtDur(mean), fmt.Sprintf("%.1f", pages))
		}
		if err := agreementAcross(per, len(queries)); err != nil {
			return nil, fmt.Errorf("fig17c %s: %w", cs.Name, err)
		}
	}
	return t, nil
}

// Fig18a reproduces Figure 18(a): range query time vs radius fraction.
func Fig18a(opt Options) (*Table, error) {
	cs := Cases(opt.Full)[0]
	g := dataset.MustGenerate(cs.Spec)
	objects := dataset.PlaceUniform(g, 100, 18)
	approaches, err := buildAll(g, objects, cs.Levels)
	if err != nil {
		return nil, err
	}
	diam := g.EstimateDiameter()
	queries := dataset.RandomNodes(g, opt.Queries, 181)
	t := &Table{
		Title:   "Figure 18(a) — range query time vs r (CA, |O|=100)",
		Columns: []string{"r", "approach", "time/query", "faults/query"},
	}
	for _, frac := range []float64{0.05, 0.1, 0.2} {
		radius := diam * frac
		per := make(map[string][][]float64)
		for _, name := range ApproachNames {
			mean, pages, dists := measureRange(approaches[name], queries, radius)
			per[name] = dists
			t.AddRow(fmt.Sprintf("%.2f", frac), name, fmtDur(mean), fmt.Sprintf("%.1f", pages))
		}
		if err := agreementAcross(per, len(queries)); err != nil {
			return nil, fmt.Errorf("fig18a r=%.2f: %w", frac, err)
		}
	}
	return t, nil
}

// Fig18b reproduces Figure 18(b): range query time vs object cardinality.
func Fig18b(opt Options) (*Table, error) {
	cs := Cases(opt.Full)[0]
	g := dataset.MustGenerate(cs.Spec)
	diam := g.EstimateDiameter()
	queries := dataset.RandomNodes(g, opt.Queries, 182)
	t := &Table{
		Title:   "Figure 18(b) — range query time vs |O| (CA, r=0.1)",
		Columns: []string{"|O|", "approach", "time/query", "faults/query"},
	}
	for _, numObjects := range []int{10, 50, 100, 500, 1000} {
		objects := dataset.PlaceUniform(g, numObjects, int64(numObjects)*5)
		approaches, err := buildAll(g, objects, cs.Levels)
		if err != nil {
			return nil, err
		}
		per := make(map[string][][]float64)
		for _, name := range ApproachNames {
			mean, pages, dists := measureRange(approaches[name], queries, diam*0.1)
			per[name] = dists
			t.AddRow(fmt.Sprintf("%d", numObjects), name, fmtDur(mean), fmt.Sprintf("%.1f", pages))
		}
		if err := agreementAcross(per, len(queries)); err != nil {
			return nil, fmt.Errorf("fig18b |O|=%d: %w", numObjects, err)
		}
	}
	return t, nil
}

// Fig18c reproduces Figure 18(c): range query time per network.
func Fig18c(opt Options) (*Table, error) {
	t := &Table{
		Title:   "Figure 18(c) — range query time vs network (|O|=100, r=0.1)",
		Columns: []string{"network", "approach", "time/query", "faults/query"},
	}
	for _, cs := range Cases(opt.Full) {
		g := dataset.MustGenerate(cs.Spec)
		objects := dataset.PlaceUniform(g, 100, 183)
		approaches, err := buildAll(g, objects, cs.Levels)
		if err != nil {
			return nil, err
		}
		diam := g.EstimateDiameter()
		queries := dataset.RandomNodes(g, opt.Queries, 184)
		per := make(map[string][][]float64)
		for _, name := range ApproachNames {
			mean, pages, dists := measureRange(approaches[name], queries, diam*0.1)
			per[name] = dists
			t.AddRow(cs.Name, name, fmtDur(mean), fmt.Sprintf("%.1f", pages))
		}
		if err := agreementAcross(per, len(queries)); err != nil {
			return nil, fmt.Errorf("fig18c %s: %w", cs.Name, err)
		}
	}
	return t, nil
}

// fig19Levels is the depth sweep Figure 19 runs on one network case.
func fig19Levels(name string, full bool) []int {
	switch {
	case name == "CA":
		return []int{2, 3, 4, 5, 6}
	case full:
		return []int{6, 7, 8, 9, 10}
	}
	return []int{4, 5, 6, 7, 8}
}

// Fig19 reproduces Figure 19: the effect of the Rnet hierarchy depth l on
// ROAD's index construction time and kNN time (p=4, |O|=100, k=5).
func Fig19(opt Options) (*Table, error) {
	t := &Table{
		Title:   "Figure 19 — effect of Rnet hierarchy levels (p=4, |O|=100, k=5)",
		Columns: []string{"network", "l", "index time", "knn time/query", "shortcuts"},
	}
	for _, cs := range Cases(opt.Full) {
		g := dataset.MustGenerate(cs.Spec)
		objects := dataset.PlaceUniform(g, 100, 19)
		queries := dataset.RandomNodes(g, opt.Queries, 191)
		for _, l := range fig19Levels(cs.Name, opt.Full) {
			f, err := buildROAD(g, objects, roadConfig(l), core.AbstractSet)
			if err != nil {
				return nil, err
			}
			a := &roadApproach{f: f}
			mean, _, _ := measureKNN(a, queries, 5)
			t.AddRow(cs.Name, fmt.Sprintf("%d", l), fmtDur(f.BuildTime), fmtDur(mean),
				fmt.Sprintf("%d", f.Hierarchy().ShortcutCount()))
		}
	}
	return t, nil
}

// AblationPruning compares Lemma-4 shortcut pruning on/off: shortcut
// count, index size and query time.
func AblationPruning(opt Options) (*Table, error) {
	cs := Cases(opt.Full)[0]
	g := dataset.MustGenerate(cs.Spec)
	objects := dataset.PlaceUniform(g, 100, 31)
	queries := dataset.RandomNodes(g, opt.Queries, 311)
	t := &Table{
		Title:   "Ablation — Lemma-4 shortcut pruning (CA, |O|=100, k=5)",
		Columns: []string{"pruning", "shortcuts", "overlay size", "knn time/query"},
	}
	for _, pr := range []struct {
		label string
		max   int
	}{{"off", 0}, {"≤32 borders", 32}, {"all Rnets", 1 << 30}} {
		rcfg := roadConfig(cs.Levels)
		rcfg.PruneMaxBorders = pr.max
		f, err := buildROAD(g, objects, rcfg, core.AbstractSet)
		if err != nil {
			return nil, err
		}
		a := &roadApproach{f: f}
		mean, _, _ := measureKNN(a, queries, 5)
		t.AddRow(pr.label, fmt.Sprintf("%d", f.Hierarchy().ShortcutCount()),
			fmtBytes(f.Overlay().SizeBytes()), fmtDur(mean))
	}
	return t, nil
}

// AblationAbstract compares object-abstract representations: directory
// size and attribute-filtered query time.
func AblationAbstract(opt Options) (*Table, error) {
	cs := Cases(opt.Full)[0]
	g := dataset.MustGenerate(cs.Spec)
	objects := dataset.PlaceUniform(g, 500, 32, 1, 2, 3, 4, 5, 6, 7, 8)
	queries := dataset.RandomNodes(g, opt.Queries, 321)
	t := &Table{
		Title:   "Ablation — object abstract representation (CA, |O|=500, attr-filtered 5NN)",
		Columns: []string{"abstract", "directory size", "knn time/query", "rnets descended/query"},
	}
	for _, kind := range []core.AbstractKind{core.AbstractSet, core.AbstractCount, core.AbstractBloom} {
		f, err := buildROAD(g, objects, roadConfig(cs.Levels), kind)
		if err != nil {
			return nil, err
		}
		var total time.Duration
		var descended int
		for _, q := range queries {
			f.DropCache()
			start := time.Now()
			_, st := f.KNN(core.Query{Node: q, Attr: 3}, 5)
			total += time.Since(start)
			descended += st.RnetsDescended
		}
		t.AddRow(kind.String(), fmtBytes(f.Directory().SizeBytes()),
			fmtDur(total/time.Duration(len(queries))),
			fmt.Sprintf("%.1f", float64(descended)/float64(len(queries))))
	}
	return t, nil
}

// AblationPartitioner compares geometric-only partitioning against
// geometric+KL refinement: border count, build time, query time.
func AblationPartitioner(opt Options) (*Table, error) {
	cs := Cases(opt.Full)[0]
	g := dataset.MustGenerate(cs.Spec)
	objects := dataset.PlaceUniform(g, 100, 33)
	queries := dataset.RandomNodes(g, opt.Queries, 331)
	t := &Table{
		Title:   "Ablation — partitioner refinement (CA, |O|=100, k=5)",
		Columns: []string{"partitioner", "borders", "shortcuts", "index time", "knn time/query"},
	}
	for _, pc := range []struct {
		label  string
		passes int
	}{{"geometric only", 0}, {"geometric+KL", partition.DefaultKLPasses}} {
		rcfg := roadConfig(cs.Levels)
		rcfg.KLPasses = pc.passes
		f, err := buildROAD(g, objects, rcfg, core.AbstractSet)
		if err != nil {
			return nil, err
		}
		a := &roadApproach{f: f}
		mean, _, _ := measureKNN(a, queries, 5)
		t.AddRow(pc.label, fmt.Sprintf("%d", f.Hierarchy().BorderCount()),
			fmt.Sprintf("%d", f.Hierarchy().ShortcutCount()),
			fmtDur(f.BuildTime), fmtDur(mean))
	}
	return t, nil
}

// AblationObjectSkew compares uniform and clustered object placements:
// search-space pruning pays off more when objects concentrate (footnote 3).
func AblationObjectSkew(opt Options) (*Table, error) {
	cs := Cases(opt.Full)[0]
	g := dataset.MustGenerate(cs.Spec)
	queries := dataset.RandomNodes(g, opt.Queries, 341)
	t := &Table{
		Title:   "Ablation — object distribution (CA, |O|=100, k=5, ROAD vs NetExp)",
		Columns: []string{"placement", "approach", "time/query", "faults/query"},
	}
	for _, pl := range []struct {
		label   string
		objects *graph.ObjectSet
	}{
		{"uniform", dataset.PlaceUniform(g, 100, 34)},
		{"clustered", dataset.PlaceClustered(g, 100, 3, 34)},
	} {
		for _, name := range []string{"NetExp", "ROAD"} {
			a, err := BuildApproach(name, g, pl.objects, cs.Levels)
			if err != nil {
				return nil, err
			}
			mean, pages, _ := measureKNN(a, queries, 5)
			t.AddRow(pl.label, name, fmtDur(mean), fmt.Sprintf("%.1f", pages))
		}
	}
	return t, nil
}

// Registry maps experiment IDs to runners for the CLI and bench tests.
// Every runner rejects Options it would divide by (see validated) before
// building anything.
var Registry = map[string]func(Options) (*Table, error){
	"fig11":              validated(Fig11),
	"fig13":              validated(Fig13),
	"fig14":              validated(Fig14),
	"fig15":              validated(Fig15),
	"fig16":              validated(Fig16),
	"fig17a":             validated(Fig17a),
	"fig17b":             validated(Fig17b),
	"fig17c":             validated(Fig17c),
	"fig18a":             validated(Fig18a),
	"fig18b":             validated(Fig18b),
	"fig18c":             validated(Fig18c),
	"fig19":              validated(Fig19),
	"ablation-pruning":   validated(AblationPruning),
	"ablation-abstract":  validated(AblationAbstract),
	"ablation-partition": validated(AblationPartitioner),
	"ablation-skew":      validated(AblationObjectSkew),
}

// validated makes run reject the workload sizes it averages over:
// per-query and per-trial means divide by them.
func validated(run func(Options) (*Table, error)) func(Options) (*Table, error) {
	return func(opt Options) (*Table, error) {
		if opt.Queries < 1 || opt.Trials < 1 {
			return nil, fmt.Errorf("bench: Queries and Trials must be at least 1 (got %d, %d)", opt.Queries, opt.Trials)
		}
		return run(opt)
	}
}

// Order lists experiment IDs in presentation order.
var Order = []string{
	"fig11", "fig13", "fig14", "fig15", "fig16",
	"fig17a", "fig17b", "fig17c", "fig18a", "fig18b", "fig18c", "fig19",
	"ablation-pruning", "ablation-abstract", "ablation-partition", "ablation-skew",
}
