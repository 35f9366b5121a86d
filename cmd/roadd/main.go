// Command roadd serves a ROAD index over HTTP/JSON: concurrent kNN /
// range / path queries on pooled sessions, epoch-guarded maintenance
// (edge re-weighting, road closures, object churn), an LRU result cache
// invalidated by maintenance, a /stats endpoint — and durable restarts:
// with -snapshot the daemon reopens a previously saved index in O(load)
// instead of rebuilding in O(build), and with -journal every maintenance
// op is write-ahead logged and replayed over the snapshot on startup.
//
// With -shards K the network is split into K region shards along its
// top-level partition boundaries, one full ROAD index per shard behind a
// query router that answers cross-shard queries through recorded border
// distances. Each shard persists its own snapshot and journal (plus one
// manifest tying the global ID space together), /stats reports per-shard
// load, and every shard keeps its own epoch.
//
// Usage:
//
//	roadd -net CA -objects 1000                 # synthetic network
//	roadd -load network.csv -addr :8080         # roadgen CSV
//	roadd -net CA -snapshot ca.snap -journal ca.wal
//	                                            # durable: first start
//	                                            # builds + saves, later
//	                                            # starts load + replay
//	roadd -net CA -shards 4                     # sharded serving
//	roadd -net CA -shards 4 -snapshot ca.snap -journal ca.wal
//	                                            # per-shard ca.snap.N +
//	                                            # ca.snap.manifest, ca.wal.N
//	roadd -snapshot ca.snap -journal ca.wal -journal-max-bytes 1048576
//	                                            # auto-snapshot (and rotate
//	                                            # the journal) once it
//	                                            # outgrows 1 MiB
//
// With -shard-hosts the shards live in other processes entirely: roadd
// becomes a router over a fleet of roadshard hosts, keeping only the
// global mirror (identity maps, border tables) and shipping all shard
// compute over HTTP/JSON with pooled connections, bounded retries and
// hedged duplicates for straggling cross-shard reads. Hosts are health-
// checked continuously; a dead host fails only its own shards' calls
// (HTTP 503, code "shard_unavailable") and is re-adopted on return
// without a router restart. Persistence is host-owned in this mode:
// /admin/snapshot fans out to the fleet.
//
//	roadd -shard-hosts localhost:7071,localhost:7072
//
// With -query-timeout every read query runs under a per-request deadline
// plumbed through the road.Store context machinery: an expired search
// aborts cooperatively mid-expansion and the client receives HTTP 503
// with a typed error body ({"error":...,"code":"deadline_exceeded"}).
//
// Observability: GET /metrics exposes Prometheus text-format metrics
// (request rates and latency histograms per endpoint, per-query cost
// histograms, cache/pool/journal counters, per-shard load). Read
// queries accept &trace=1 to return a per-leg trace of the phases and
// shards the search visited. -slow-query DUR logs queries slower than
// DUR — with their traces — as JSON lines on stderr, and -query-log
// FILE records a sampled structured log of every query served (one
// JSON line each, size-rotated; see -query-log-sample and
// -query-log-max-bytes). Every query is stamped with a request ID that
// appears in the response, the query log and any slow-query line, so
// the three views of one request join trivially. GET /admin/workload
// reports the live workload model (query mix, per-shard heat, hot
// nodes, repeat-query clusters) over an in-memory rolling window of
// recent queries (-workload-window); the roadlog tool computes the
// same model offline from a -query-log file. On a -shard-hosts router,
// GET /fleet reports per-host health, RPC latency percentiles and
// hedging counters, and &trace=1 traces continue across process
// boundaries: each rpc leg nests the host-side legs (queue wait,
// search compute, journal fsync) under sub, with wire time separated.
// -pprof additionally mounts net/http/pprof under /debug/pprof/.
//
// Endpoints (see internal/server for the full reference):
//
//	GET  /knn?node=N&k=K[&attr=A][&budget=B][&trace=1]
//	GET  /within?node=N&radius=R[&attr=A][&budget=B][&trace=1]
//	GET  /path?node=N&object=O[&trace=1]
//	POST /batch                      [{"knn":{"from":N,"k":K}},...]
//	POST /maintenance/{set-distance,close,reopen,add-road,
//	                   insert-object,delete-object,set-attr}
//	POST /admin/snapshot
//	GET  /admin/workload
//	GET  /stats
//	GET  /metrics
//	GET  /fleet                      (remote deployments)
//	GET  /healthz
//
// On SIGTERM/SIGINT a -snapshot daemon persists a final snapshot (with
// the store quiesced, so it is epoch-consistent) before exiting. Every
// successful snapshot save also rotates the journal(s), dropping entries
// the snapshot already includes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"road"
	"road/internal/dataset"
	"road/internal/graph"
	"road/internal/obs"
	"road/internal/server"
	"road/internal/version"
)

// config collects the daemon's flag values; a struct rather than a
// parameter list so call sites cannot silently transpose same-typed
// arguments.
type config struct {
	addr            string
	load            string
	net             string
	scale           float64
	objects         int
	levels          int
	seed            int64
	cacheSize       int
	shards          int
	shardHosts      string
	queryTimeout    time.Duration
	snapPath        string
	journalPath     string
	journalSync     bool
	journalMaxBytes int64
	slowQuery       time.Duration
	queryLogPath    string
	queryLogSample  int
	queryLogMax     int64
	workloadWindow  int
	pprof           bool

	qlog *obs.QueryLog // opened from queryLogPath before the server starts
}

// serverOptions translates the daemon flags shared by both deployment
// shapes into serving-subsystem options.
func (c config) serverOptions() server.Options {
	return server.Options{
		CacheSize:          c.cacheSize,
		QueryTimeout:       c.queryTimeout,
		SlowQueryThreshold: c.slowQuery,
		QueryLog:           c.qlog,
		WorkloadWindow:     c.workloadWindow,
		Pprof:              c.pprof,
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":7070", "listen address")
	flag.StringVar(&cfg.load, "load", "", "load network+objects from a roadgen CSV file instead of generating")
	flag.StringVar(&cfg.net, "net", "CA", "synthetic network: CA, NA or SF")
	flag.Float64Var(&cfg.scale, "scale", 1, "network scale factor (0,1]")
	flag.IntVar(&cfg.objects, "objects", 1000, "objects placed uniformly when generating")
	flag.IntVar(&cfg.levels, "levels", 0, "Rnet hierarchy depth (0 = default)")
	flag.Int64Var(&cfg.seed, "seed", 1, "placement seed")
	flag.IntVar(&cfg.cacheSize, "cache", 0, "result cache entries (0 = default, negative disables)")
	flag.IntVar(&cfg.shards, "shards", 1, "serve K region shards behind a query router (power of two ≥ 2; 1 = single index)")
	flag.StringVar(&cfg.shardHosts, "shard-hosts", "", "serve as a router over out-of-process roadshard hosts (comma-separated addresses); every shard of the deployment must be served by exactly one host")
	flag.DurationVar(&cfg.queryTimeout, "query-timeout", 0, "per-request deadline for read queries; an expired query aborts mid-search and answers HTTP 503 with code \"deadline_exceeded\" (0 disables)")
	flag.StringVar(&cfg.snapPath, "snapshot", "", "snapshot file: load it if present (skipping the build), create it otherwise; enables /admin/snapshot and snapshot-on-SIGTERM. With -shards this is a path prefix (prefix.N per shard + prefix.manifest)")
	flag.StringVar(&cfg.journalPath, "journal", "", "write-ahead journal file: maintenance ops are logged before they apply and replayed over the snapshot on startup. With -shards this is a path prefix (prefix.N per shard)")
	flag.BoolVar(&cfg.journalSync, "journal-sync", false, "fsync the journal after every op (durable against machine crashes, slower)")
	flag.Int64Var(&cfg.journalMaxBytes, "journal-max-bytes", 0, "auto-snapshot (and rotate the journal) when the journal exceeds this many bytes (0 disables)")
	flag.DurationVar(&cfg.slowQuery, "slow-query", 0, "log queries slower than this — with per-leg traces — as JSON lines on stderr (0 disables)")
	flag.StringVar(&cfg.queryLogPath, "query-log", "", "append a sampled structured query log (JSON lines) to this file")
	flag.IntVar(&cfg.queryLogSample, "query-log-sample", 1, "log every Nth query (1 logs all)")
	flag.Int64Var(&cfg.queryLogMax, "query-log-max-bytes", 0, "rotate the query log to FILE.1 when it exceeds this many bytes (0 = 64 MiB)")
	flag.IntVar(&cfg.workloadWindow, "workload-window", 0, "queries kept in the in-memory rolling window behind /admin/workload (0 = default 4096, negative disables the endpoint)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("roadd"))
		return
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "roadd:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.queryLogPath != "" {
		qlog, err := obs.OpenQueryLog(cfg.queryLogPath, cfg.queryLogSample, cfg.queryLogMax)
		if err != nil {
			return err
		}
		defer qlog.Close()
		cfg.qlog = qlog
	}
	var store road.Store
	var opts server.Options
	var closeStore func() error
	var err error
	switch {
	case cfg.shardHosts != "":
		store, opts, closeStore, err = setupRemote(cfg)
	case cfg.shards > 1:
		store, opts, closeStore, err = setupSharded(cfg)
	default:
		store, opts, closeStore, err = setupSingle(cfg)
	}
	if err != nil {
		return err
	}
	// Close (and thereby fsync) the journals — or stop the fleet's health
	// loops — on the way out, so a clean shutdown leaves every acknowledged
	// op on stable storage even without -journal-sync.
	defer closeStore()
	return serve(cfg, server.New(store, opts), store.JournalSizeBytes)
}

// serve runs the HTTP front end, the optional journal-size watcher, and
// the shutdown path shared by single-index and sharded deployments.
func serve(cfg config, srv *server.Server, journalSize func() int64) error {
	httpSrv := &http.Server{Addr: cfg.addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("roadd: serving on %s\n", cfg.addr)

	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	if cfg.journalMaxBytes > 0 && cfg.snapPath != "" && cfg.journalPath != "" {
		go watchJournal(srv, journalSize, cfg.journalMaxBytes, stopWatch, watchDone)
	} else {
		close(watchDone)
	}
	// stopWatcher joins the auto-snapshot goroutine so an in-flight
	// snapshot cannot race the final snapshot or the journal close.
	stopWatcher := func() {
		close(stopWatch)
		<-watchDone
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		stopWatcher()
		return err
	case sig := <-sigc:
		stopWatcher()
		fmt.Printf("roadd: %v: shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Drain in-flight requests before the final snapshot: an apply
		// still running while the snapshot rotates (and the deferred
		// close closes) the journals could be acknowledged but lost. If
		// the drain deadline expires, hard-close the stragglers so
		// nothing races the persistence below.
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Printf("roadd: drain incomplete (%v), closing connections\n", err)
			httpSrv.Close()
		}
		if cfg.snapPath != "" {
			epoch, seq, bytes, err := srv.TakeSnapshot()
			if err != nil {
				return fmt.Errorf("final snapshot: %w", err)
			}
			fmt.Printf("roadd: final snapshot %s (epoch %d, journal seq %d, %d bytes)\n", cfg.snapPath, epoch, seq, bytes)
		}
		return nil
	}
}

// watchJournal polls the journal size and triggers an auto-snapshot —
// which rotates the journal, shrinking it back to its header — whenever
// the configured bound is exceeded.
func watchJournal(srv *server.Server, size func() int64, maxBytes int64, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if size() <= maxBytes {
				continue
			}
			epoch, seq, bytes, err := srv.TakeSnapshot()
			if err != nil {
				fmt.Printf("roadd: auto-snapshot failed: %v\n", err)
				continue
			}
			fmt.Printf("roadd: journal exceeded %d bytes: auto-snapshot (epoch %d, seq %d, %d bytes), journal rotated\n",
				maxBytes, epoch, seq, bytes)
		}
	}
}

// --- Single-index deployment ---

// Each set-up returns the opened (and journal-replayed) store, the serving
// options it needs, and what to close on the way out; fail is their error
// return.
func fail(err error) (road.Store, server.Options, func() error, error) {
	return nil, server.Options{}, nil, err
}

func setupSingle(cfg config) (road.Store, server.Options, func() error, error) {
	// Stat the snapshot exactly once: "absent" means build-and-create, but
	// any other stat failure (unreadable parent, permission) must surface —
	// silently running unpersisted would only be discovered at the next
	// restart.
	snapExists, err := usableFile(cfg.snapPath)
	if err != nil {
		return fail(err)
	}

	db, err := openDB(cfg, snapExists)
	if err != nil {
		return fail(err)
	}

	// Journal: replay whatever the base state (snapshot or fresh build)
	// does not include, then attach so new ops are write-ahead logged.
	closeJournal := func() error { return nil }
	if cfg.journalPath != "" {
		journal, err := road.OpenJournal(cfg.journalPath)
		if err != nil {
			return fail(err)
		}
		closeJournal = journal.Close
		journal.SyncEachAppend = cfg.journalSync
		start := time.Now()
		applied, rerr := db.ReplayJournal(journal)
		if rerr != nil {
			if !road.IsReplayOpError(rerr) {
				// Fatal: the journal could not be fully read; serving now
				// would silently drop the unapplied tail.
				return fail(fmt.Errorf("journal replay: %w", rerr))
			}
			// Expected: an op that failed live fails identically on replay.
			fmt.Printf("roadd: journal replay note: %v\n", rerr)
		}
		if applied > 0 {
			fmt.Printf("roadd: replayed %d journaled ops in %v (epoch %d)\n",
				applied, time.Since(start).Round(time.Millisecond), db.Epoch())
		}
		if err := db.AttachJournal(journal); err != nil {
			return fail(err)
		}
	}

	// First run with -snapshot: persist the built (and replayed) index so
	// the next start is O(load).
	if cfg.snapPath != "" && !snapExists {
		if err := db.SaveSnapshotFile(cfg.snapPath); err != nil {
			return fail(err)
		}
		fmt.Printf("roadd: wrote initial snapshot %s\n", cfg.snapPath)
	}

	opts := cfg.serverOptions()
	if cfg.snapPath != "" {
		opts.SnapshotSave = func() (int64, error) {
			if err := db.Save(cfg.snapPath); err != nil {
				return 0, err
			}
			// Rotate right after the save, under the same exclusion: the
			// dropped entries are exactly the ones the snapshot includes.
			if err := db.CompactJournal(); err != nil {
				return 0, fmt.Errorf("rotating journal: %w", err)
			}
			return fileSize(cfg.snapPath), nil
		}
	}
	return db, opts, closeJournal, nil
}

// --- Sharded deployment ---

func setupSharded(cfg config) (road.Store, server.Options, func() error, error) {
	snapExists, err := usableFile(manifestPathOrEmpty(cfg.snapPath))
	if err != nil {
		return fail(err)
	}

	var db *road.ShardedDB
	if snapExists {
		start := time.Now()
		db, err = road.OpenShardedSnapshotFiles(cfg.snapPath)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("roadd: loaded %d shard snapshots under %s in %v (%d nodes, %d edges, %d objects)\n",
			db.NumShards(), cfg.snapPath, time.Since(start).Round(time.Millisecond),
			db.NumNodes(), db.NumRoads(), db.NumObjects())
	} else {
		g, set, err := loadOrGenerate(cfg.load, cfg.net, cfg.scale, cfg.objects, cfg.seed)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("roadd: building %d shards over %d nodes, %d edges, %d objects...\n",
			cfg.shards, g.NumNodes(), g.NumEdges(), set.Len())
		start := time.Now()
		db, err = road.OpenShardedWithObjects(road.FromGraph(g), set, road.Options{
			Levels: cfg.levels,
			Seed:   cfg.seed,
		}, cfg.shards)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("roadd: built in %v, index ≈ %d KB across %d shards\n",
			time.Since(start).Round(time.Millisecond), db.IndexSizeBytes()/1024, db.NumShards())
	}

	if cfg.journalPath != "" {
		journals, err := db.OpenShardJournals(cfg.journalPath, cfg.journalSync)
		if err != nil {
			return fail(err)
		}
		start := time.Now()
		applied, rerr := db.ReplayJournals(journals)
		if rerr != nil {
			if !road.IsReplayOpError(rerr) {
				return fail(fmt.Errorf("shard journal replay: %w", rerr))
			}
			fmt.Printf("roadd: journal replay note: %v\n", rerr)
		}
		if applied > 0 {
			fmt.Printf("roadd: replayed %d journaled ops across %d shard journals in %v (epoch %d)\n",
				applied, db.NumShards(), time.Since(start).Round(time.Millisecond), db.Epoch())
		}
		if err := db.AttachJournals(journals); err != nil {
			return fail(err)
		}
	}

	if cfg.snapPath != "" && !snapExists {
		if err := db.SaveSnapshotFiles(cfg.snapPath); err != nil {
			return fail(err)
		}
		fmt.Printf("roadd: wrote initial shard snapshots under %s\n", cfg.snapPath)
	}

	opts := cfg.serverOptions()
	if cfg.snapPath != "" {
		opts.SnapshotSave = func() (int64, error) {
			if err := db.Save(cfg.snapPath); err != nil {
				return 0, err
			}
			if err := db.CompactJournal(); err != nil {
				return 0, fmt.Errorf("rotating shard journals: %w", err)
			}
			total := fileSize(road.ShardManifestPath(cfg.snapPath))
			for i := 0; i < db.NumShards(); i++ {
				total += fileSize(road.ShardSnapshotPath(cfg.snapPath, i))
			}
			return total, nil
		}
	}
	return db, opts, db.CloseJournals, nil
}

// --- Remote deployment (router over roadshard hosts) ---

// setupRemote connects the router to a fleet of out-of-process roadshard
// hosts. Persistence is host-owned: /admin/snapshot fans out to every
// host (each snapshots its shards and rotates its journals), and
// snapshot-on-shutdown is skipped — hosts persist on their own SIGTERM.
func setupRemote(cfg config) (road.Store, server.Options, func() error, error) {
	reg := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	hosts := strings.Split(cfg.shardHosts, ",")
	for i := range hosts {
		hosts[i] = strings.TrimSpace(hosts[i])
	}
	start := time.Now()
	db, err := road.OpenRemote(ctx, hosts, road.RemoteOptions{Registry: reg})
	if err != nil {
		return fail(err)
	}
	fmt.Printf("roadd: assembled router over %d hosts serving %d shards in %v (%d nodes, %d edges, %d objects)\n",
		len(hosts), db.NumShards(), time.Since(start).Round(time.Millisecond),
		db.NumNodes(), db.NumRoads(), db.NumObjects())

	opts := cfg.serverOptions()
	opts.AuxMetrics = []*obs.Registry{reg}
	opts.SnapshotSave = func() (int64, error) {
		// Size is host-local; report 0 rather than guessing.
		return 0, db.Save("")
	}
	closeFleet := func() error { db.Close(); return nil }
	return db, opts, closeFleet, nil
}

// --- Shared helpers ---

// usableFile reports whether path names an existing file; an empty path
// is simply absent, any stat error other than non-existence is fatal.
func usableFile(path string) (bool, error) {
	if path == "" {
		return false, nil
	}
	switch _, err := os.Stat(path); {
	case err == nil:
		return true, nil
	case os.IsNotExist(err):
		return false, nil
	default:
		return false, fmt.Errorf("snapshot %s: %w", path, err)
	}
}

func manifestPathOrEmpty(prefix string) string {
	if prefix == "" {
		return ""
	}
	return road.ShardManifestPath(prefix)
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// openDB produces the base DB state: a snapshot load when -snapshot names
// an existing file, a fresh build otherwise.
func openDB(cfg config, snapExists bool) (*road.DB, error) {
	if snapExists {
		start := time.Now()
		db, err := road.OpenSnapshotFile(cfg.snapPath)
		if err != nil {
			return nil, err
		}
		f := db.Framework()
		fmt.Printf("roadd: loaded snapshot %s in %v (%d nodes, %d edges, %d objects; built in %v originally)\n",
			cfg.snapPath, time.Since(start).Round(time.Millisecond),
			f.Graph().NumNodes(), f.Graph().NumEdges(), f.Objects().Len(),
			f.BuildTime.Round(time.Millisecond))
		return db, nil
	}

	g, set, err := loadOrGenerate(cfg.load, cfg.net, cfg.scale, cfg.objects, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("roadd: building index over %d nodes, %d edges, %d objects...\n",
		g.NumNodes(), g.NumEdges(), set.Len())
	start := time.Now()
	db, err := road.OpenWithObjects(road.FromGraph(g), set, road.Options{
		Levels: cfg.levels,
		Seed:   cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("roadd: built in %v, index ≈ %d KB\n",
		time.Since(start).Round(time.Millisecond), db.IndexSizeBytes()/1024)
	return db, nil
}

func loadOrGenerate(load, netName string, scale float64, objects int, seed int64) (*graph.Graph, *graph.ObjectSet, error) {
	if load != "" {
		file, err := os.Open(load)
		if err != nil {
			return nil, nil, err
		}
		defer file.Close()
		g, set, err := dataset.ReadCSV(file)
		if err != nil {
			return nil, nil, err
		}
		if set.Len() == 0 {
			set = dataset.PlaceUniform(g, objects, seed, 0, 1, 2, 3)
		}
		return g, set, nil
	}
	var spec dataset.Spec
	switch netName {
	case "CA":
		spec = dataset.CA()
	case "NA":
		spec = dataset.NA()
	case "SF":
		spec = dataset.SF()
	default:
		return nil, nil, fmt.Errorf("unknown network %q (want CA, NA or SF)", netName)
	}
	if scale != 1 {
		spec = dataset.Scaled(spec, scale)
	}
	g := dataset.MustGenerate(spec)
	return g, dataset.PlaceUniform(g, objects, seed, 0, 1, 2, 3), nil
}
