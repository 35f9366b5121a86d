package core

import (
	"fmt"
	"reflect"
	"testing"

	"road/internal/graph"
	"road/internal/rnet"
	"road/internal/storage"
)

// The index-size metric and the simulated page record sizes are read off
// the CSR slabs. These tests hold both to their definitions over pointer
// shortcut trees (rnet.Hierarchy.TreeSizeBytes and the tree walk below),
// which no serving path builds any more.

// oracleRecordSize is a node's overlay record size computed the way it is
// defined: its shortcut-tree record plus every shortcut departing it from
// a border entry, over its pointer tree.
func oracleRecordSize(f *Framework, n graph.NodeID) int {
	size := f.h.TreeSizeBytes(n)
	var walk func(ts []*rnet.TreeNode)
	walk = func(ts []*rnet.TreeNode) {
		for _, t := range ts {
			if t.IsBorder {
				for _, sc := range f.h.ShortcutsFrom(t.Rnet, n) {
					size += 16 + 4*len(sc.Via)
				}
			}
			walk(t.Children)
		}
	}
	walk(f.h.Tree(n))
	return size
}

// assertSlabSizesMatchPointerTrees checks every node's slab-derived tree
// bytes against TreeSizeBytes over a fresh pointer tree, and
// IndexSizeBytes against the sum those trees give.
func assertSlabSizesMatchPointerTrees(t *testing.T, label string, f *Framework) {
	t.Helper()
	c := f.ro.loadCSR()
	want := f.h.SizeBytes() + f.ad.SizeBytes()
	for n := 0; n < f.g.NumNodes(); n++ {
		oracle := f.h.TreeSizeBytes(graph.NodeID(n))
		if got := c.treeSizeBytes(graph.NodeID(n)); got != oracle {
			t.Fatalf("%s: node %d tree bytes %d off the slab, %d over a pointer tree", label, n, got, oracle)
		}
		want += int64(oracle)
	}
	if got := f.IndexSizeBytes(); got != want {
		t.Fatalf("%s: IndexSizeBytes %d, %d summed over pointer trees", label, got, want)
	}
}

// TestOverlayRecordSizesMatchPointerTrees: the page layout Build lays out
// from the slabs is the one the pointer-tree record sizes give, record
// for record, and so is the index size.
func TestOverlayRecordSizesMatchPointerTrees(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		cfg := defaultCfg()
		cfg.Rnet.StorePaths = true
		f, _, _ := fixture(t, 900, 1200, 150, seed, cfg)
		label := fmt.Sprintf("seed%d", seed)
		assertSlabSizesMatchPointerTrees(t, label, f)

		want := storage.NewLayout(storage.NewStore(storage.DefaultBufferPages))
		for _, n := range f.ro.order {
			want.Place(int64(n), oracleRecordSize(f, n))
		}
		if got, exp := f.ro.layout.ExportState(), want.ExportState(); !reflect.DeepEqual(got, exp) {
			t.Fatalf("%s: overlay page layout differs from the pointer-tree record sizes", label)
		}
	}
}

var indexBytesSink int64

// BenchmarkIndexSizeBytes times the index-size metric on a warm CA
// framework: the cost /metrics, /stats and every fleet HostApply pay.
func BenchmarkIndexSizeBytes(b *testing.B) {
	f := caFramework(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexBytesSink = f.IndexSizeBytes()
	}
}

// TestIndexSizeBytesAllocatesNothing pins the metric to a walk over the
// slabs and the hierarchy's own records: no tree, no per-node scratch.
func TestIndexSizeBytesAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds on plain builds")
	}
	if testing.Short() {
		t.Skip("builds the CA network")
	}
	f := caFramework(t)
	if allocs := testing.AllocsPerRun(20, func() { f.IndexSizeBytes() }); allocs != 0 {
		t.Fatalf("IndexSizeBytes allocates %v per call; want 0", allocs)
	}
	if n := f.h.CachedTrees(); n != 0 {
		t.Fatalf("a built, warmed and sized framework caches %d pointer trees; want 0", n)
	}
}
