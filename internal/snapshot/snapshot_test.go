package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"road/internal/core"
	"road/internal/dataset"
	"road/internal/graph"
	"road/internal/rnet"
)

// buildFixture constructs a framework over a small synthetic network with
// objects, path storage on (so PathTo works) and pruning off (total
// shortcut coverage makes divergence loud).
func buildFixture(t testing.TB, seed int64) *core.Framework {
	t.Helper()
	g := dataset.MustGenerate(dataset.Spec{Name: "snap", Nodes: 260, Edges: 300, Seed: seed})
	set := dataset.PlaceUniform(g, 60, seed+1, 0, 1, 2, 3)
	f, err := core.Build(g, set, core.Config{
		Rnet:     rnet.Config{Fanout: 2, Levels: 3, KLPasses: -1, StorePaths: true, Seed: seed},
		Abstract: core.AbstractBloom,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f
}

// tinyFixture is a minimal framework for corpus seeds and cheap checks.
func tinyFixture(t testing.TB) *core.Framework {
	t.Helper()
	g := dataset.MustGenerate(dataset.Spec{Name: "tiny", Nodes: 24, Edges: 30, Seed: 5})
	set := dataset.PlaceUniform(g, 6, 6, 0, 1, 2)
	f, err := core.Build(g, set, core.Config{
		Rnet:     rnet.Config{Fanout: 2, Levels: 2, KLPasses: -1, StorePaths: true, Seed: 5},
		Abstract: core.AbstractSet,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f
}

// mutate applies a deterministic pseudo-random maintenance sequence:
// re-weights, closures and reopenings, object churn — every op kind the
// journal records.
func mutate(t testing.TB, f *core.Framework, rng *rand.Rand, ops int) {
	t.Helper()
	g := f.Graph()
	var closed []graph.EdgeID
	for i := 0; i < ops; i++ {
		switch rng.Intn(6) {
		case 0: // re-weight
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			if g.Edge(e).Removed {
				continue
			}
			w := g.Weight(e) * (0.5 + rng.Float64())
			if _, err := f.SetEdgeWeight(e, w); err != nil {
				t.Fatalf("SetEdgeWeight(%d): %v", e, err)
			}
		case 1: // close
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			if g.Edge(e).Removed {
				continue
			}
			if _, err := f.DeleteEdge(e); err != nil {
				t.Fatalf("DeleteEdge(%d): %v", e, err)
			}
			closed = append(closed, e)
		case 2: // reopen
			if len(closed) == 0 {
				continue
			}
			e := closed[len(closed)-1]
			closed = closed[:len(closed)-1]
			if _, err := f.RestoreEdge(e); err != nil {
				t.Fatalf("RestoreEdge(%d): %v", e, err)
			}
		case 3: // insert object
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			if g.Edge(e).Removed {
				continue
			}
			if _, err := f.InsertObject(e, rng.Float64()*g.Weight(e), int32(rng.Intn(4))); err != nil {
				t.Fatalf("InsertObject: %v", err)
			}
		case 4: // delete object
			objs := f.Objects().All()
			if len(objs) == 0 {
				continue
			}
			if err := f.DeleteObject(objs[rng.Intn(len(objs))].ID); err != nil {
				t.Fatalf("DeleteObject: %v", err)
			}
		case 5: // change attribute
			objs := f.Objects().All()
			if len(objs) == 0 {
				continue
			}
			if err := f.UpdateObjectAttr(objs[rng.Intn(len(objs))].ID, int32(rng.Intn(4))); err != nil {
				t.Fatalf("UpdateObjectAttr: %v", err)
			}
		}
	}
}

// assertSameAnswers runs a randomized KNN/range/path workload against both
// frameworks and requires byte-identical answers.
func assertSameAnswers(t *testing.T, want, got *core.Framework, seed int64) {
	t.Helper()
	if we, ge := want.Epoch(), got.Epoch(); we != ge {
		t.Fatalf("epoch diverged: %d vs %d", we, ge)
	}
	rng := rand.New(rand.NewSource(seed))
	n := want.Graph().NumNodes()
	diam := want.Graph().EstimateDiameter()
	for q := 0; q < 60; q++ {
		node := graph.NodeID(rng.Intn(n))
		attr := int32(rng.Intn(5)) - 1 // -1 never matches, 0 = any, 1..3 real
		if attr < 0 {
			attr = 4 // rarely-used category
		}
		k := 1 + rng.Intn(8)
		wres, _ := want.KNN(core.Query{Node: node, Attr: attr}, k)
		gres, _ := got.KNN(core.Query{Node: node, Attr: attr}, k)
		compareResults(t, "KNN", node, wres, gres)

		radius := rng.Float64() * diam * 0.3
		wres, _ = want.Range(core.Query{Node: node, Attr: attr}, radius)
		gres, _ = got.Range(core.Query{Node: node, Attr: attr}, radius)
		compareResults(t, "Range", node, wres, gres)

		if len(wres) > 0 {
			target := wres[rng.Intn(len(wres))].Object.ID
			wp, wd, werr := want.PathTo(core.Query{Node: node}, target)
			gp, gd, gerr := got.PathTo(core.Query{Node: node}, target)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("PathTo(%d,%d): error diverged: %v vs %v", node, target, werr, gerr)
			}
			if werr == nil {
				if math.Abs(wd-gd) > 1e-9*math.Max(1, wd) {
					t.Fatalf("PathTo(%d,%d): dist %g vs %g", node, target, wd, gd)
				}
				if len(wp) != len(gp) {
					t.Fatalf("PathTo(%d,%d): path length %d vs %d", node, target, len(wp), len(gp))
				}
				for i := range wp {
					if wp[i] != gp[i] {
						t.Fatalf("PathTo(%d,%d): path[%d] = %d vs %d", node, target, i, wp[i], gp[i])
					}
				}
			}
		}
	}
}

func compareResults(t *testing.T, what string, node graph.NodeID, want, got []core.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s from %d: %d results vs %d", what, node, len(want), len(got))
	}
	for i := range want {
		if want[i].Object != got[i].Object || want[i].Dist != got[i].Dist {
			t.Fatalf("%s from %d: result %d = %+v vs %+v", what, node, i, want[i], got[i])
		}
	}
}

func saveToBytes(t testing.TB, f *core.Framework, lastSeq uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(f, lastSeq, &buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

func loadFromBytes(t testing.TB, data []byte) (*core.Framework, uint64) {
	t.Helper()
	f, seq, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return f, seq
}

func TestRoundTripFreshBuild(t *testing.T) {
	f := buildFixture(t, 11)
	data := saveToBytes(t, f, 0)
	g, seq := loadFromBytes(t, data)
	if seq != 0 {
		t.Fatalf("lastSeq = %d, want 0", seq)
	}
	assertSameAnswers(t, f, g, 100)
	if w, g := f.IndexSizeBytes(), g.IndexSizeBytes(); w != g {
		t.Fatalf("index size diverged: %d vs %d", w, g)
	}
}

// TestRoundTripAfterMutations is the build → mutate → save → load property
// test: a snapshot taken after arbitrary maintenance answers every query
// exactly like the live instance.
func TestRoundTripAfterMutations(t *testing.T) {
	for _, seed := range []int64{21, 22, 23} {
		f := buildFixture(t, seed)
		mutate(t, f, rand.New(rand.NewSource(seed*7)), 60)
		data := saveToBytes(t, f, 0)
		g, _ := loadFromBytes(t, data)
		assertSameAnswers(t, f, g, 200+seed)
	}
}

// TestRoundTripSecondGeneration: a snapshot of a loaded-and-then-mutated
// framework must still round-trip (save → load → mutate → save → load).
func TestRoundTripSecondGeneration(t *testing.T) {
	f := buildFixture(t, 31)
	g1, _ := loadFromBytes(t, saveToBytes(t, f, 0))
	rng := rand.New(rand.NewSource(99))
	mutate(t, f, rng, 30)
	mutate(t, g1, rand.New(rand.NewSource(99)), 30)
	g2, _ := loadFromBytes(t, saveToBytes(t, g1, 0))
	assertSameAnswers(t, f, g2, 300)
}

// TestRestoredFrameworkBuildsCSR: a snapshot carries no CSR index, so
// Restore builds it from the restored hierarchy — the framework leaves
// Restore ready to serve, with no pointer trees cached — and every
// mutation after it, journal-style replay included, is patched.
func TestRestoredFrameworkBuildsCSR(t *testing.T) {
	f := buildFixture(t, 51)
	loaded, _ := loadFromBytes(t, saveToBytes(t, f, 0))
	if st := loaded.CSRStats(); st.Rebuilds != 1 || st.Patches != 0 {
		t.Fatalf("after restore: %+v, want exactly one build", st)
	}
	if n := loaded.Hierarchy().CachedTrees(); n != 0 {
		t.Fatalf("restore cached %d pointer trees, want none", n)
	}
	reweigh := func(fr *core.Framework, e graph.EdgeID, factor float64) {
		if _, err := fr.SetEdgeWeight(e, fr.Graph().Weight(e)*factor); err != nil {
			t.Fatal(err)
		}
	}
	for e := graph.EdgeID(0); e < 4; e++ {
		reweigh(f, e, 2)
		reweigh(loaded, e, 2)
		if st := loaded.CSRStats(); st.Rebuilds != 1 || st.Patches != uint64(e)+1 {
			t.Fatalf("mutation %d after restore: %+v, want one patch per mutation", e, st)
		}
	}
	assertSameAnswers(t, f, loaded, 700)
}

// TestRoundTripAfterFailedAddEdge: a rolled-back AddEdge still consumes
// an edge ID (the removed stub); a snapshot taken afterwards — and one
// taken after the stub is later reopened — must still round-trip.
func TestRoundTripAfterFailedAddEdge(t *testing.T) {
	f := tinyFixture(t)
	g := f.Graph()
	// Fully isolate nodes 0 and 1.
	var u, v graph.NodeID = 0, 1
	for _, n := range [2]graph.NodeID{u, v} {
		for len(g.Neighbors(n)) > 0 {
			if _, err := f.DeleteEdge(g.Neighbors(n)[0].Edge); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := f.AddEdge(u, v, 1.5); err == nil {
		t.Fatal("AddEdge between isolated nodes succeeded")
	}
	stub := graph.EdgeID(g.NumEdges() - 1)
	loaded, _ := loadFromBytes(t, saveToBytes(t, f, 0))
	assertSameAnswers(t, f, loaded, 600)

	// Reopen the stub (it has no origin leaf, but its endpoints regain a
	// live edge first) and snapshot again.
	restoreAll := func(fr *core.Framework) {
		for e := 0; e < fr.Graph().NumEdges(); e++ {
			if fr.Graph().Edge(graph.EdgeID(e)).Removed {
				if _, err := fr.RestoreEdge(graph.EdgeID(e)); err != nil {
					t.Fatalf("RestoreEdge(%d): %v", e, err)
				}
			}
		}
	}
	restoreAll(f)
	restoreAll(loaded)
	if f.Hierarchy().LeafOf(stub) == rnet.NoRnet {
		t.Fatalf("reopened stub edge %d not hosted", stub)
	}
	reloaded, _ := loadFromBytes(t, saveToBytes(t, f, 0))
	assertSameAnswers(t, f, reloaded, 601)
	assertSameAnswers(t, f, loaded, 602)
}

// TestJournalReplayEquivalence: snapshot@seq N + journal replay of
// everything after N reproduces the live state exactly — the crash
// recovery path.
func TestJournalReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "ops.wal")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()

	live := buildFixture(t, 41)
	g := live.Graph()
	rng := rand.New(rand.NewSource(77))

	// Generate a stream of ops; journal each before applying (write-ahead),
	// exactly as road.DB does.
	apply := func(op Op) {
		if _, err := j.Append(op); err != nil {
			t.Fatalf("Append: %v", err)
		}
		// Application errors are fine: failed ops replay to the same failure.
		_ = ApplyOp(live, op)
	}
	randOp := func() Op {
		switch rng.Intn(6) {
		case 0:
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			return Op{Kind: OpSetDistance, Edge: e, Value: 0.1 + rng.Float64()*3}
		case 1:
			return Op{Kind: OpClose, Edge: graph.EdgeID(rng.Intn(g.NumEdges()))}
		case 2:
			return Op{Kind: OpReopen, Edge: graph.EdgeID(rng.Intn(g.NumEdges()))}
		case 3:
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			return Op{Kind: OpInsertObject, Edge: e, Value: rng.Float64() * 0.5, Attr: int32(rng.Intn(4))}
		case 4:
			return Op{Kind: OpDeleteObject, Object: graph.ObjectID(rng.Intn(80))}
		default:
			return Op{Kind: OpSetObjectAttr, Object: graph.ObjectID(rng.Intn(80)), Attr: int32(rng.Intn(4))}
		}
	}

	for i := 0; i < 40; i++ {
		apply(randOp())
	}
	// Mid-stream snapshot, watermarked with the ops applied so far.
	data := saveToBytes(t, live, j.LastSeq())
	for i := 0; i < 40; i++ {
		apply(randOp())
	}

	// "Restart": load the snapshot, replay the journal tail.
	restored, afterSeq := loadFromBytes(t, data)
	if afterSeq == 0 {
		t.Fatal("snapshot lost its journal watermark")
	}
	if _, err := j.Replay(restored, afterSeq); err != nil {
		t.Logf("replay reported op error (expected when ops failed live): %v", err)
	}
	assertSameAnswers(t, live, restored, 400)

	// A second replay at the new watermark must be a no-op.
	n, _ := j.Replay(restored, j.LastSeq())
	if n != 0 {
		t.Fatalf("replay past the end applied %d ops", n)
	}
}

// TestApplyOpRejectsForeignIDs: a journal paired with the wrong (smaller)
// base state must produce errors, not index-out-of-range panics.
func TestApplyOpRejectsForeignIDs(t *testing.T) {
	f := tinyFixture(t)
	for _, op := range []Op{
		{Kind: OpSetDistance, Edge: 99999, Value: 2},
		{Kind: OpClose, Edge: 99999},
		{Kind: OpReopen, Edge: -1},
		{Kind: OpInsertObject, Edge: 99999, Value: 0.5},
		{Kind: OpAddRoad, U: -5, V: 99999, Value: 1},
		{Kind: OpDeleteObject, Object: 99999},
		{Kind: OpSetObjectAttr, Object: 99999, Attr: 1},
		{Kind: OpKind(200)},
	} {
		if err := ApplyOp(f, op); err == nil {
			t.Fatalf("ApplyOp(%+v) accepted a foreign ID", op)
		}
	}
}

// TestReplayDistinguishesOpErrors: per-op failures come back as *OpError
// (replay completed), unlike fatal read errors.
func TestReplayDistinguishesOpErrors(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "ops.wal")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Append(Op{Kind: OpClose, Edge: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(Op{Kind: OpClose, Edge: 0}); err != nil { // will fail: already closed
		t.Fatal(err)
	}
	f := tinyFixture(t)
	applied, rerr := j.Replay(f, 0)
	if applied != 1 {
		t.Fatalf("applied %d ops, want 1", applied)
	}
	var opErr *OpError
	if !errors.As(rerr, &opErr) {
		t.Fatalf("replay error %v is not a *OpError", rerr)
	}
	if opErr.Seq != 2 || opErr.Op.Kind != OpClose {
		t.Fatalf("OpError = %+v, want seq 2 close", opErr)
	}
}

// TestJournalRecoversTornTail: a crash mid-append leaves a partial entry;
// reopening truncates it and keeps the intact prefix.
func TestJournalRecoversTornTail(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "torn.wal")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := j.Append(Op{Kind: OpClose, Edge: graph.EdgeID(i)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	j.Close()

	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last entry in half.
	if err := os.WriteFile(jpath, data[:len(data)-entrySize/2], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(jpath)
	if err != nil {
		t.Fatalf("OpenJournal after tear: %v", err)
	}
	defer j2.Close()
	if j2.LastSeq() != 2 {
		t.Fatalf("LastSeq after torn tail = %d, want 2", j2.LastSeq())
	}
	// Appending continues from the repaired position.
	seq, err := j2.Append(Op{Kind: OpReopen, Edge: 0})
	if err != nil || seq != 3 {
		t.Fatalf("Append after repair = (%d, %v), want (3, nil)", seq, err)
	}
}

// TestJournalRejectsMidFileCorruption: a damaged entry with intact
// entries after it is corruption, not a torn tail — silently truncating
// would discard committed ops, so the open must fail.
func TestJournalRejectsMidFileCorruption(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "mid.wal")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := j.Append(Op{Kind: OpClose, Edge: graph.EdgeID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	data[journalHeaderSize+entrySize+4] ^= 0xFF // damage entry 2 of 3
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(jpath); err == nil {
		t.Fatal("OpenJournal silently accepted mid-file corruption")
	}
}

// TestJournalFingerprintRejectsWrongBase: a journal stamped against one
// build must refuse to replay over a different base at the same
// watermark.
func TestJournalFingerprintRejectsWrongBase(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "fp.wal")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	base := tinyFixture(t)
	if err := j.BindBase(base, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(Op{Kind: OpClose, Edge: 0}); err != nil {
		t.Fatal(err)
	}
	// Same base: replay passes the check and applies the op.
	if applied, err := j.Replay(base, 0); err != nil || applied != 1 {
		t.Fatalf("replay over the stamped base = (%d, %v), want (1, nil)", applied, err)
	}
	// Different base (other topology/weights): fatal, and NOT an OpError.
	other := buildFixture(t, 83)
	_, err = j.Replay(other, 0)
	if err == nil {
		t.Fatal("replay accepted a foreign base state")
	}
	var opErr *OpError
	if errors.As(err, &opErr) {
		t.Fatalf("fingerprint mismatch surfaced as per-op error: %v", err)
	}
	j.Close()
}

// TestJournalRejectsForeignFile: opening a non-journal file fails with a
// descriptive error instead of replaying garbage.
func TestJournalRejectsForeignFile(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "not-a.wal")
	if err := os.WriteFile(jpath, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(jpath); err == nil {
		t.Fatal("OpenJournal accepted a foreign file")
	}
}

// --- Corruption hardening: Load must fail descriptively, never panic ---

func TestLoadRejectsWrongMagic(t *testing.T) {
	data := saveToBytes(t, buildFixture(t, 51), 0)
	data[0] ^= 0xFF
	if _, _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("Load accepted bad magic")
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	data := saveToBytes(t, buildFixture(t, 51), 0)
	// Version field sits right after the magic; bump it far beyond current
	// and repair the header CRC so only the version check can fire.
	data[len(Magic)] = 0xEE
	fixHeaderCRC(data)
	_, _, err := Load(bytes.NewReader(data))
	if err == nil {
		t.Fatal("Load accepted a future format version")
	}
	if want := "version"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	data := saveToBytes(t, buildFixture(t, 51), 0)
	for _, n := range []int{0, 3, len(Magic), 15, len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, _, err := Load(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("Load accepted a file truncated to %d bytes", n)
		}
	}
}

func TestLoadRejectsFlippedBytes(t *testing.T) {
	data := saveToBytes(t, buildFixture(t, 51), 0)
	// Flip one byte at a spread of offsets; every flip must be caught (by
	// the header CRC, a section CRC, or — if the flip lands in a CRC field
	// itself — the mismatch against the recomputed value).
	for _, off := range []int{1, 9, 13, 20, 40, 100, len(data) / 3, len(data) / 2, len(data) - 2} {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x40
		if _, _, err := Load(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("Load accepted a byte flip at offset %d", off)
		}
	}
}

func TestLoadRejectsTrailingGarbage(t *testing.T) {
	data := saveToBytes(t, buildFixture(t, 51), 0)
	if _, _, err := Load(bytes.NewReader(append(data, 0xAB))); err == nil {
		t.Fatal("Load accepted trailing garbage")
	}
}

// fixHeaderCRC recomputes the header checksum after a deliberate header
// edit, so tests can reach validation stages beyond it.
func fixHeaderCRC(data []byte) {
	headFixed := len(Magic) + 8
	count := int(binary.LittleEndian.Uint32(data[len(Magic)+4:]))
	tableEnd := headFixed + count*16
	if tableEnd+4 > len(data) {
		return
	}
	binary.LittleEndian.PutUint32(data[tableEnd:], crc32.Checksum(data[:tableEnd], crcTable))
}

func TestSaveFileAtomicAndLoadFile(t *testing.T) {
	f := buildFixture(t, 61)
	path := filepath.Join(t.TempDir(), "index.snap")
	if err := SaveFile(f, 7, path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	g, seq, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if seq != 7 {
		t.Fatalf("lastSeq = %d, want 7", seq)
	}
	assertSameAnswers(t, f, g, 500)
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files after SaveFile: %v", entries)
	}
}
