package road

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file is the public-API half of the CSR differential harness (the
// exact, traversal-level half lives in internal/core/csr_test.go). It
// storms seeded query+mutation interleavings through every deployment
// shape at once — monolithic DB, in-process ShardedDB, and a two-host
// RemoteDB fleet over real TCP — holding the retained page-store
// reference implementation as ground truth. The CSR session on the same
// index must agree rank-for-rank with bit-identical distances; the
// sharded and remote shapes must agree as distance multisets (their
// border-table sums associate differently). CI runs this storm under
// -race: the CSR patch path (generation check + in-place slab rewrite
// inside the post-mutation fence) and the concurrent fleet transport are
// exactly where a data race would hide.

// assertExactResults demands rank-for-rank identity including
// bit-identical distances — the CSR-vs-reference contract on a shared
// index (cf. assertSameResults' tie-tolerant multiset comparison, the
// right bar for cross-shape legs).
func assertExactResults(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Object.ID != got[i].Object.ID || want[i].Dist != got[i].Dist {
			t.Fatalf("%s: rank %d: reference (obj %d, %v) vs CSR (obj %d, %v)",
				label, i, want[i].Object.ID, want[i].Dist, got[i].Object.ID, got[i].Dist)
		}
	}
}

func assertSameTypedError(t *testing.T, label string, want, got error) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: error %v vs %v", label, want, got)
	}
	if want == nil {
		return
	}
	for _, typed := range []error{
		ErrCanceled, ErrBudgetExhausted, ErrInvalidRequest, ErrNoSuchNode,
		ErrNoSuchObject, ErrAttrMismatch, ErrUnreachable, ErrPathsNotStored,
	} {
		if errors.Is(want, typed) != errors.Is(got, typed) {
			t.Fatalf("%s: typed mismatch for %v: %v vs %v", label, typed, want, got)
		}
	}
}

// TestDifferentialCSRStorm interleaves randomized mutation bursts with
// differential queries across four legs sharing one logical road
// network: reference session (ground truth), CSR session (must be
// exact), ShardedDB and a two-host RemoteDB fleet (must match as
// multisets, including typed errors across the wire).
func TestDifferentialCSRStorm(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{13, 31} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const nodes, objects, shards = 340, 55, 4
			db, sdb := shardedPair(t, seed, nodes, objects, shards)
			_, rdb, _ := remoteTriple(t, seed, nodes, objects, shards)

			csr := db.NewSession()
			ref := db.NewSession()
			ref.s.UseReferencePath(true)

			rng := rand.New(rand.NewSource(seed * 7))
			legs := []struct {
				name string
				s    Store
			}{{"sharded", sdb}, {"remote", rdb}}

			check := func(phase string) {
				numObjects := db.NumObjects() + 8 // reach past live IDs to hit deleted ones too
				for i := 0; i < 10; i++ {
					n := NodeID(rng.Intn(db.NumNodes()))
					k := 1 + rng.Intn(6)
					radius := 0.5 + 3*rng.Float64()
					label := fmt.Sprintf("%s seed%d q%d node=%d", phase, seed, i, n)

					wantK, _, errK := ref.KNNContext(ctx, NewKNN(n, k))
					gotK, _, errC := csr.KNNContext(ctx, NewKNN(n, k))
					assertSameTypedError(t, label+" knn csr", errK, errC)
					assertExactResults(t, label+" knn csr", wantK, gotK)
					wantW, _, errW := ref.WithinContext(ctx, NewWithin(n, radius))
					gotW, _, errC2 := csr.WithinContext(ctx, NewWithin(n, radius))
					assertSameTypedError(t, label+" within csr", errW, errC2)
					assertExactResults(t, label+" within csr", wantW, gotW)

					for _, leg := range legs {
						got, _, err := leg.s.KNNContext(ctx, NewKNN(n, k))
						if errK != nil || err != nil {
							t.Fatalf("%s knn %s: %v / %v", label, leg.name, errK, err)
						}
						assertSameResults(t, label+" knn "+leg.name, wantK, got)
						got, _, err = leg.s.WithinContext(ctx, NewWithin(n, radius))
						if errW != nil || err != nil {
							t.Fatalf("%s within %s: %v / %v", label, leg.name, errW, err)
						}
						assertSameResults(t, label+" within "+leg.name, wantW, got)
					}

					// Paths: the CSR leg must match the reference hop for hop;
					// cross-shape legs recompute per shard, so equal shortest
					// distances are the contract there. Dead object IDs are in
					// range, checking ErrNoSuchObject crosses the wire intact.
					obj := ObjectID(rng.Intn(numObjects))
					wantP, _, wantErr := ref.PathToContext(ctx, NewPath(n, obj))
					gotP, _, gotErr := csr.PathToContext(ctx, NewPath(n, obj))
					assertSameTypedError(t, label+" path csr", wantErr, gotErr)
					if wantErr == nil {
						if wantP.Dist != gotP.Dist || len(wantP.Nodes) != len(gotP.Nodes) {
							t.Fatalf("%s path csr: (%v, %d hops) vs (%v, %d hops)",
								label, gotP.Dist, len(gotP.Nodes), wantP.Dist, len(wantP.Nodes))
						}
						for j := range wantP.Nodes {
							if wantP.Nodes[j] != gotP.Nodes[j] {
								t.Fatalf("%s path csr: hop %d: %d vs %d", label, j, gotP.Nodes[j], wantP.Nodes[j])
							}
						}
					}
					for _, leg := range legs {
						legP, _, legErr := leg.s.PathToContext(ctx, NewPath(n, obj))
						assertSameTypedError(t, label+" path "+leg.name, wantErr, legErr)
						if wantErr != nil {
							continue
						}
						if math.Abs(wantP.Dist-legP.Dist) > 1e-9*math.Max(1, wantP.Dist) {
							t.Fatalf("%s path %s: dist %g, want %g", label, leg.name, legP.Dist, wantP.Dist)
						}
					}

					// Budget exhaustion must truncate identically on both
					// in-process paths (typed error + valid prefix).
					lim := NewKNN(n, 8, WithBudget(1+rng.Intn(40)))
					wantL, _, errL := ref.KNNContext(ctx, lim)
					gotL, _, errLC := csr.KNNContext(ctx, lim)
					assertSameTypedError(t, label+" knnlim csr", errL, errLC)
					assertExactResults(t, label+" knnlim csr", wantL, gotL)
				}
			}

			// The same mutation stream through the Store interface of all
			// three deployment shapes; sessions observe each burst with no
			// call in between: every mutator leaves the slabs current.
			mutate := func(label string, op func(s Store) error) {
				errs := []error{op(db), op(sdb), op(rdb)}
				for i := 1; i < len(errs); i++ {
					if (errs[0] == nil) != (errs[i] == nil) {
						t.Fatalf("%s: mutation divergence: %v vs %v", label, errs[0], errs[i])
					}
				}
			}

			check("initial")
			for round := 0; round < 4; round++ {
				for m := 0; m < 6; m++ {
					e := EdgeID(rng.Intn(db.NumRoads()))
					switch rng.Intn(5) {
					case 0:
						w := 0.2 + 3*rng.Float64()
						mutate("set-distance", func(s Store) error { return s.SetRoadDistance(e, w) })
					case 1:
						mutate("close", func(s Store) error { return s.CloseRoad(e) })
					case 2:
						mutate("reopen", func(s Store) error { return s.ReopenRoad(e) })
					case 3:
						off := rng.Float64() * 0.1
						attr := int32(rng.Intn(3))
						mutate("insert", func(s Store) error {
							_, err := s.AddObject(e, off, attr)
							return err
						})
					case 4:
						id := ObjectID(rng.Intn(objects + round*3))
						mutate("delete", func(s Store) error { return s.RemoveObject(id) })
					}
				}
				check(fmt.Sprintf("round%d", round))
			}
		})
	}
}
