package road

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"road/internal/core"
	"road/internal/dataset"
)

// pglyPayload returns the PGLY section of the snapshot file at path: the
// container is the magic, the format version and the section count, one
// table entry (tag, length, CRC) per section, the table's CRC, and the
// payloads in table order.
func pglyPayload(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const head, entry = 16, 16
	count := int(binary.LittleEndian.Uint32(data[12:]))
	off := head + count*entry + 4
	for i := 0; i < count; i++ {
		e := data[head+i*entry:]
		n := int(binary.LittleEndian.Uint64(e[4:]))
		if string(e[:4]) == "PGLY" {
			return data[off : off+n]
		}
		off += n
	}
	t.Fatalf("%s has no PGLY section", path)
	return nil
}

// TestStoresHoldNoPageStore is the referee of the one serving
// configuration: a DB, a ShardedDB and a RemoteDB, each fresh and each
// reopened from its snapshot, hold no simulated page store in any
// framework, and every snapshot file they save carries the 5-byte empty
// PGLY payload (no node order, layout flag 0).
func TestStoresHoldNoPageStore(t *testing.T) {
	const seed, nodes, objects, shards = 29, 240, 30, 2
	empty := []byte{0, 0, 0, 0, 0}
	check := func(label string, fws []*core.Framework, files []string) {
		t.Helper()
		if len(fws) == 0 || len(files) == 0 {
			t.Fatalf("%s: %d frameworks, %d files", label, len(fws), len(files))
		}
		for i, f := range fws {
			if f.Store() != nil {
				t.Errorf("%s: framework %d holds a page store", label, i)
			}
			if !f.Hierarchy().Config().StorePaths {
				t.Errorf("%s: framework %d holds no waypoints", label, i)
			}
		}
		for _, path := range files {
			if got := pglyPayload(t, path); string(got) != string(empty) {
				t.Errorf("%s: %s PGLY payload is %d bytes %v, want the empty form", label, filepath.Base(path), len(got), got[:min(len(got), 8)])
			}
		}
	}
	shardFiles := func(prefix string) []string {
		out := make([]string, shards)
		for i := range out {
			out[i] = ShardSnapshotPath(prefix, i)
		}
		return out
	}
	routerFrameworks := func(s *routerStore) []*core.Framework {
		out := make([]*core.Framework, s.NumShards())
		for i := range out {
			out[i] = s.Router().Shard(i).F
		}
		return out
	}
	dir := t.TempDir()
	db, sdb := shardedPair(t, seed, nodes, objects, shards)

	monoSnap := filepath.Join(dir, "mono.snap")
	if err := db.Save(monoSnap); err != nil {
		t.Fatal(err)
	}
	check("DB fresh", []*core.Framework{db.Framework()}, []string{monoSnap})
	reopened, err := OpenSnapshotFile(monoSnap)
	if err != nil {
		t.Fatal(err)
	}
	again := filepath.Join(dir, "mono2.snap")
	if err := reopened.Save(again); err != nil {
		t.Fatal(err)
	}
	check("DB reopened", []*core.Framework{reopened.Framework()}, []string{again})

	set := filepath.Join(dir, "set")
	if err := sdb.Save(set); err != nil {
		t.Fatal(err)
	}
	check("ShardedDB fresh", routerFrameworks(&sdb.routerStore), shardFiles(set))
	sreopened, err := OpenShardedSnapshotFiles(set)
	if err != nil {
		t.Fatal(err)
	}
	set2 := filepath.Join(dir, "set2")
	if err := sreopened.Save(set2); err != nil {
		t.Fatal(err)
	}
	check("ShardedDB reopened", routerFrameworks(&sreopened.routerStore), shardFiles(set2))

	// A fleet's frameworks live on its hosts; Save has each host write
	// its own shards' files under the prefix it booted from.
	rdb, hosts := remoteFromFiles(t, set2, shards)
	hostFrameworks := func(hs []*testHost) []*core.Framework {
		var out []*core.Framework
		for _, h := range hs {
			for _, id := range h.host.ShardIDs() {
				out = append(out, h.host.Shard(id).F)
			}
		}
		return out
	}
	for _, path := range shardFiles(set2) {
		if err := os.Remove(path); err != nil { // the hosts rewrite them
			t.Fatal(err)
		}
	}
	if err := rdb.Save(""); err != nil {
		t.Fatal(err)
	}
	check("RemoteDB fresh", hostFrameworks(hosts), shardFiles(set2))
	for i, h := range hosts {
		h.crash()
		hosts[i] = h.restart()
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			h.crash()
		}
	})
	check("RemoteDB reopened", hostFrameworks(hosts), shardFiles(set2))
}

// TestOpenRejectsOverDeepHierarchy: a depth whose Fanout^Levels leaf
// Rnets exceed max(2^20, roads) is rejected up front by both in-process
// stores — partitioning such a hierarchy multiplies empty Rnets until
// memory runs out — with an error naming the deepest usable depth, while
// the default shape builds. internal/bench's TestSweepDepthsAreBuildable
// holds every depth the paper's figures sweep to the same check.
func TestOpenRejectsOverDeepHierarchy(t *testing.T) {
	const seed, nodes = 31, 200
	open := map[string]func(Options) error{
		"DB": func(o Options) error {
			g := dataset.MustGenerate(dataset.Spec{Name: "deep", Nodes: nodes, Edges: nodes + nodes/3, Seed: seed})
			_, err := Open(FromGraph(g), o)
			return err
		},
		"ShardedDB": func(o Options) error {
			g := dataset.MustGenerate(dataset.Spec{Name: "deep", Nodes: nodes, Edges: nodes + nodes/3, Seed: seed})
			_, err := OpenSharded(FromGraph(g), o, 2)
			return err
		},
	}
	for _, tc := range []struct {
		opts    Options
		deepest string // "" when the shape builds
	}{
		{Options{}, ""},
		{Options{Levels: 3}, ""},
		{Options{Levels: 11}, "at most 10 levels"},
		{Options{Levels: 12}, "at most 10 levels"},
		{Options{Fanout: 2, Levels: 21}, "at most 20 levels"},
		{Options{Fanout: 8, Levels: 40}, "at most 6 levels"},
	} {
		for name, fn := range open {
			start := time.Now()
			err := fn(tc.opts)
			took := time.Since(start)
			switch {
			case tc.deepest == "" && err != nil:
				t.Errorf("%s %+v: %v", name, tc.opts, err)
			case tc.deepest != "" && (err == nil || !strings.Contains(err.Error(), tc.deepest)):
				t.Errorf("%s %+v: error %v, want one naming %q", name, tc.opts, err, tc.deepest)
			case tc.deepest != "" && took > 2*time.Second:
				t.Errorf("%s %+v: rejected after %v", name, tc.opts, took)
			}
		}
	}
}
