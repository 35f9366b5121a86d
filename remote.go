package road

import (
	"context"
	"time"

	"road/internal/obs"
	"road/internal/shard/remote"
)

// RemoteDB is a ROAD database whose K region shards live in other
// processes — roadshard hosts — behind the same query router ShardedDB
// uses in-process. The router keeps only the global mirror (identity
// maps, border tables); all per-shard search
// and mutation compute happens on the hosts, reached over HTTP/JSON with
// pooled connections, per-call timeouts, bounded retries on idempotent
// reads and hedged duplicates for straggling cross-shard expansions.
//
// The query and maintenance surface is ShardedDB's: a RemoteDB satisfies
// Store, so the serving layer runs unmodified over either deployment.
// Differences worth knowing:
//
//   - Persistence lives on the hosts. Save ignores its path argument and
//     instead asks every host to snapshot its shards and rotate its
//     journals; CompactJournal is a no-op (rotation rides the snapshot).
//   - Maintenance ops are write-ahead journaled BY THE HOST before they
//     apply, so a crashed host replays every op it acknowledged. The
//     router itself journals nothing.
//   - A host that stops answering health probes is marked down: calls
//     needing its shards fail fast with ErrShardUnavailable (HTTP 503
//     through the serving layer) while other shards keep serving. When
//     the host returns, the fleet re-adopts its shards — re-fetching
//     their exported state, which reflects the replayed journal — without
//     a router restart.
type RemoteDB struct {
	routerStore // every journal slot stays empty: the hosts journal
	fleet       *remote.Fleet
}

// RemoteOptions configures OpenRemote. The zero value is usable.
type RemoteOptions struct {
	// Registry receives the road_remote_* metric families: per-host RPC
	// latency histograms (which also calibrate the hedging delay), error
	// counters, hedge counters and up/down gauges. Nil keeps them in a
	// private registry.
	Registry *obs.Registry
	// HealthInterval is the per-host health probe period (default 1s).
	HealthInterval time.Duration
	// DownAfter is the number of consecutive failed probes that mark a
	// host down (default 2).
	DownAfter int
	// Logf receives host up/down transitions (default log.Printf).
	Logf func(format string, args ...any)
}

// OpenRemote connects to a fleet of roadshard hosts, discovers which
// host serves which shard, fetches every shard's exported routing state
// (borders, border-distance table, identity maps)
// and assembles the mirror router. Every shard ID 0..K-1 of the
// deployment must be served by exactly one host. Health checking starts
// immediately; Close stops it.
func OpenRemote(ctx context.Context, hosts []string, o RemoteOptions) (*RemoteDB, error) {
	f, err := remote.ConnectFleet(ctx, hosts, remote.FleetConfig{
		Registry:       o.Registry,
		HealthInterval: o.HealthInterval,
		DownAfter:      o.DownAfter,
		Logf:           o.Logf,
	})
	if err != nil {
		return nil, err
	}
	return &RemoteDB{routerStore: newRouterStore(f.Router()), fleet: f}, nil
}

// Fleet exposes the underlying host fleet (serving layers, benchmark
// harnesses, tests).
func (db *RemoteDB) Fleet() *remote.Fleet { return db.fleet }

// Close stops the health loops. In-flight RPCs finish on their own
// timeouts.
func (db *RemoteDB) Close() { db.fleet.Close() }

// FleetStatus reports per-host health, RPC latency percentiles and
// hedge/re-adoption counters; the serving layer's /fleet endpoint
// surfaces it.
func (db *RemoteDB) FleetStatus() remote.FleetStatus { return db.fleet.Status() }

// --- Persistence (host-owned) ---

// Save asks every host to snapshot its shards and rotate its journals.
// The path argument is ignored: each host persists under the prefix it
// was started with. Runs under the serving layer's exclusion like any
// Store.Save, so the per-host snapshots are epoch-consistent.
func (db *RemoteDB) Save(string) error {
	return db.fleet.Snapshot(db.fleet.Context())
}

// CompactJournal is a no-op: hosts rotate their journals as part of the
// snapshot Save triggers.
func (db *RemoteDB) CompactJournal() error { return nil }

// JournalSeq sums the host-reported journal watermarks — the monotonic
// recovery watermark /metrics exposes, refreshed on every acknowledged
// mutation.
func (db *RemoteDB) JournalSeq() uint64 {
	var sum uint64
	for i := 0; i < db.r.NumShards(); i++ {
		sum += db.r.Shard(i).RemoteSeq()
	}
	return sum
}

// JournalSizeBytes sums the host-reported journal sizes.
func (db *RemoteDB) JournalSizeBytes() int64 {
	var sum int64
	for i := 0; i < db.r.NumShards(); i++ {
		sum += db.r.Shard(i).RemoteJournalBytes()
	}
	return sum
}
