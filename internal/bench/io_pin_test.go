package bench

import (
	"testing"

	"road/internal/dataset"
)

// TestROADPageIOPinned pins the page I/O the paper rig reports for ROAD:
// the summed logical reads and page faults of 20 fixed cold-cache kNN
// queries on a small network, as every earlier build reported them.
// Every ROAD framework this package builds comes from buildROAD, which
// opts into the simulated 50-page store; a build without it would report
// no I/O at all, and a change to the store, the record layout or the
// reference traversal moves these sums.
func TestROADPageIOPinned(t *testing.T) {
	g := dataset.MustGenerate(dataset.Spec{Name: "t", Nodes: 300, Edges: 340, Seed: 3})
	objects := dataset.PlaceUniform(g, 20, 4)
	a, err := BuildApproach("ROAD", g, objects, 3)
	if err != nil {
		t.Fatal(err)
	}
	var reads, faults int64
	for _, q := range dataset.RandomNodes(g, 20, 5) {
		a.DropCache()
		_, io := a.KNN(q, 5)
		reads += io.Reads
		faults += io.Faults
	}
	if reads != 3954 || faults != 184 {
		t.Fatalf("20 cold 5NN queries read %d pages with %d faults; want 3954 reads, 184 faults", reads, faults)
	}
}

// TestSweepDepthsAreBuildable: every hierarchy depth the figures build —
// each network case's own and Figure 19's sweep, fast and full — passes
// the hierarchy's depth check for that network.
func TestSweepDepthsAreBuildable(t *testing.T) {
	for _, full := range []bool{false, true} {
		for _, cs := range Cases(full) {
			for _, l := range append([]int{cs.Levels}, fig19Levels(cs.Name, full)...) {
				if err := roadConfig(l).Validate(cs.Spec.Edges); err != nil {
					t.Errorf("%s (full=%v) at %d levels: %v", cs.Name, full, l, err)
				}
			}
		}
	}
}
