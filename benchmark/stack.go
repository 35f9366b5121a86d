package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"road"
	"road/internal/graph"
	"road/internal/obs"
	"road/internal/server"
	"road/internal/shard/remote"
)

// setupInfo is what one set-up measured, seam by seam.
type setupInfo struct {
	total          time.Duration // start of the workload → first successful response
	build          time.Duration // core.Build (mono) or shard.Build (sharded, fleet)
	csrWarm        time.Duration // first session query on a fresh mono index: CSR slabs + shortcut trees
	indexBytes     int64
	save           time.Duration // SaveSnapshotFiles
	load           time.Duration // OpenShardedSnapshotFiles; for the fleet, OpenHost (load + replay)
	replay         time.Duration // ReplayJournals
	snapshotBytes  int64
	journalBytesOp float64
}

// listener serves one handler on a loopback port and counts the bytes
// that cross it.
type listener struct {
	net.Listener
	srv    *http.Server
	served chan error
	bytes  atomic.Int64 // read + written, all connections
}

type countedConn struct {
	net.Conn
	total *atomic.Int64
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.total.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.total.Add(int64(n))
	return n, err
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{Conn: c, total: &l.bytes}, nil
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{Listener: ln, srv: &http.Server{Handler: h}, served: make(chan error, 1)}
	go func() { l.served <- l.srv.Serve(l) }()
	return l, nil
}

func (l *listener) addr() string { return l.Listener.Addr().String() }

// stop closes the listener and every connection and waits for Serve to
// return.
func (l *listener) stop() {
	l.srv.Close()
	<-l.served
}

// shardHost is one in-process remote.Host behind its own listener.
type shardHost struct {
	host *remote.Host
	reg  *obs.Registry
	ln   *listener
}

// stack is one served deployment: the store, the roadd-shaped HTTP server
// over it, and whatever the store needs underneath.
type stack struct {
	w     *workload
	dir   string // snapshots and journals of this set-up
	store road.Store
	api   *listener

	db      *road.DB        // storeMono
	sharded *road.ShardedDB // storeSharded
	remote  *road.RemoteDB  // storeFleet
	hosts   []*shardHost

	info setupInfo
}

// setupMutations is the op stream of the restart path: the same for every
// seed, and even in length, so the store it leaves is at baseline. g holds
// the baseline weights.
func setupMutations(g *graph.Graph, closable []road.EdgeID, objects int) []mutation {
	return newMutationSource(setupSeed, g, closable, road.ObjectID(objects), mixedPairs).take(setupOps)
}

// objectIDsUsed counts the object IDs a mutation list consumes.
func objectIDsUsed(muts []mutation) int {
	n := 0
	for _, m := range muts {
		if m.Kind == mutInsertObject {
			n++
		}
	}
	return n
}

// setUp builds the workload's deployment the way an operator's restart
// does and serves it; info.total stops at the first successful response.
func setUp(w *workload, dir string, setupMuts []mutation) (*stack, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{w: w, dir: dir}
	var err error
	switch w.Store {
	case storeMono:
		err = s.setUpMono()
	case storeSharded:
		err = s.setUpSharded(setupMuts)
	case storeFleet:
		err = s.setUpFleet(setupMuts)
	}
	if err == nil {
		s.api, err = serve(server.New(s.store, server.Options{}).Handler())
	}
	if err == nil {
		err = firstResponse(s.api.addr())
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
	}
	s.info.total = time.Since(start)
	return s, nil
}

func firstResponse(addr string) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	status, body, err := c.roundTrip([]byte("GET /knn?node=0&k=1" + httpTail))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("first response: HTTP %d: %s", status, body)
	}
	return nil
}

func (s *stack) setUpMono() error {
	g, set := genNetwork(s.w)
	t := time.Now()
	db, err := road.OpenWithObjects(road.FromGraph(g), set, road.Options{StorePaths: true})
	if err != nil {
		return err
	}
	s.info.build = time.Since(t)
	t = time.Now()
	if _, _, err := db.NewSession().KNNContext(context.Background(), road.NewKNN(0, 1)); err != nil {
		return err
	}
	s.info.csrWarm = time.Since(t)
	s.info.indexBytes = db.IndexSizeBytes()
	s.db, s.store = db, db
	return nil
}

// buildAndSave is the cold half of the sharded restart path: build, save
// the snapshot set.
func (s *stack) buildAndSave() (*road.ShardedDB, error) {
	g, set := genNetwork(s.w)
	t := time.Now()
	sdb, err := road.OpenShardedWithObjects(road.FromGraph(g), set, road.Options{}, numShards)
	if err != nil {
		return nil, err
	}
	s.info.build = time.Since(t)
	s.info.indexBytes = sdb.IndexSizeBytes()
	t = time.Now()
	if err := sdb.SaveSnapshotFiles(s.snapPrefix()); err != nil {
		return nil, err
	}
	s.info.save = time.Since(t)
	for i := 0; i < numShards; i++ {
		s.info.snapshotBytes += fileSize(road.ShardSnapshotPath(s.snapPrefix(), i))
	}
	s.info.snapshotBytes += fileSize(road.ShardManifestPath(s.snapPrefix()))
	return sdb, nil
}

func (s *stack) snapPrefix() string { return filepath.Join(s.dir, "snap") }
func (s *stack) walPrefix() string  { return filepath.Join(s.dir, "wal") }

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// setUpSharded: cold build → SaveSnapshotFiles → setupOps journaled ops →
// close → reopen from the snapshots + ReplayJournals. Journals are
// appended with one write per op and no fsync (SyncEachAppend off), the
// roadd default.
func (s *stack) setUpSharded(muts []mutation) error {
	sdb, err := s.buildAndSave()
	if err != nil {
		return err
	}
	journals, err := sdb.OpenShardJournals(s.walPrefix(), false)
	if err != nil {
		return err
	}
	if err := sdb.AttachJournals(journals); err != nil {
		return err
	}
	for _, m := range muts {
		if err := m.apply(sdb); err != nil {
			return err
		}
	}
	s.info.journalBytesOp = float64(sdb.JournalSizeBytes()) / float64(len(muts))
	if err := sdb.CloseJournals(); err != nil {
		return err
	}

	t := time.Now()
	sdb, err = road.OpenShardedSnapshotFiles(s.snapPrefix())
	if err != nil {
		return err
	}
	s.info.load = time.Since(t)
	if journals, err = sdb.OpenShardJournals(s.walPrefix(), false); err != nil {
		return err
	}
	t = time.Now()
	applied, err := sdb.ReplayJournals(journals)
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	if applied != len(muts) {
		return fmt.Errorf("journal replay applied %d ops, want %d", applied, len(muts))
	}
	s.info.replay = time.Since(t)
	if err := sdb.AttachJournals(journals); err != nil {
		return err
	}
	s.sharded, s.store = sdb, sdb
	return nil
}

// setUpFleet: cold build → SaveSnapshotFiles → two hosts boot from the
// snapshots → setupOps ops through the router (journaled by the hosts, no
// fsync) → hosts and router close → hosts boot again, replaying their
// journals → router reassembles.
func (s *stack) setUpFleet(muts []mutation) error {
	if _, err := s.buildAndSave(); err != nil {
		return err
	}
	if err := s.bootFleet(); err != nil {
		return err
	}
	for _, m := range muts {
		if err := m.apply(s.remote); err != nil {
			return err
		}
	}
	s.info.journalBytesOp = float64(s.remote.JournalSizeBytes()) / float64(len(muts))
	s.stopFleet()
	s.info.load = 0
	return s.bootFleet()
}

func (s *stack) bootFleet() error {
	var addrs []string
	for _, ids := range [][]int{{0, 1}, {2, 3}} {
		t := time.Now()
		h := &shardHost{reg: obs.NewRegistry()}
		var err error
		h.host, err = remote.OpenHost(ids, remote.HostConfig{
			SnapshotPrefix: s.snapPrefix(),
			JournalPrefix:  s.walPrefix(),
			Registry:       h.reg,
		})
		if err != nil {
			return err
		}
		s.info.load += time.Since(t)
		s.hosts = append(s.hosts, h)
		if h.ln, err = serve(h.host.Handler()); err != nil {
			return err
		}
		addrs = append(addrs, h.ln.addr())
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rdb, err := road.OpenRemote(ctx, addrs, road.RemoteOptions{Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	s.remote, s.store = rdb, rdb
	return nil
}

func (s *stack) stopFleet() {
	if s.remote != nil {
		s.remote.Close()
		s.remote = nil
	}
	for _, h := range s.hosts {
		if h.ln != nil {
			h.ln.stop()
		}
		h.host.Close()
	}
	s.hosts = nil
}

// close stops every server and goroutine of the stack and removes its
// files.
func (s *stack) close() {
	if s.api != nil {
		s.api.stop()
	}
	s.stopFleet()
	if s.sharded != nil {
		s.sharded.CloseJournals()
	}
	os.RemoveAll(s.dir)
}

// wireBytes sums the bytes that crossed the shard hosts' listeners.
func (s *stack) wireBytes() int64 {
	var n int64
	for _, h := range s.hosts {
		n += h.ln.bytes.Load()
	}
	return n
}

// replica is an in-process copy of the served store's logical state, built
// by replaying the mutations the set-up and the clients issued. The ledger
// times its seams; the mono replica is also the referee of the served
// store's final state.
type replica struct {
	db      *road.DB
	journal *road.Journal
	sharded *road.ShardedDB // ca_fleet only: the in-process shard seam
	dir     string
	info    setupInfo // build, csrWarm and indexBytes of the mono index
}

// newReplica builds the stores a writer workload's ledger needs beneath
// its served store and replays history into them.
func newReplica(w *workload, dir string, history []mutation) (*replica, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &replica{dir: dir}
	g, set := genNetwork(w)
	var err error
	t := time.Now()
	if r.db, err = road.OpenWithObjects(road.FromGraph(g), set, road.Options{StorePaths: true}); err != nil {
		return nil, err
	}
	r.info.build = time.Since(t)
	t = time.Now()
	if _, _, err := r.db.NewSession().KNNContext(context.Background(), road.NewKNN(0, 1)); err != nil {
		return nil, err
	}
	r.info.csrWarm = time.Since(t)
	r.info.indexBytes = r.db.IndexSizeBytes()
	if r.journal, err = road.OpenJournal(filepath.Join(dir, "mono.wal")); err != nil {
		return nil, err
	}
	if err := r.db.AttachJournal(r.journal); err != nil {
		return nil, err
	}
	for _, m := range history {
		if err := m.apply(r.db); err != nil {
			return nil, fmt.Errorf("replica: %w", err)
		}
	}
	r.db.WarmAfterMutation()
	return r, nil
}

// addShardSeam gives a ca_fleet replica the in-process ShardedDB its
// ledger times between road and remote. It is built at baseline, which is
// where a drained writer leaves the served store.
func (r *replica) addShardSeam(w *workload) error {
	g, set := genNetwork(w)
	sdb, err := road.OpenShardedWithObjects(road.FromGraph(g), set, road.Options{}, numShards)
	if err != nil {
		return err
	}
	journals, err := sdb.OpenShardJournals(filepath.Join(r.dir, "shard.wal"), false)
	if err != nil {
		return err
	}
	r.sharded = sdb
	return sdb.AttachJournals(journals)
}

// close releases the replica's journals and files; they are scratch, so
// close errors have nothing to lose.
func (r *replica) close() {
	if r.journal != nil {
		r.journal.Close()
	}
	if r.sharded != nil {
		r.sharded.CloseJournals()
	}
	os.RemoveAll(r.dir)
}
