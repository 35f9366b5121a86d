// Package road is a Go implementation of ROAD — the Route-Overlay /
// Association-Directory framework for fast object search on road networks
// (Lee, Lee, Zheng; EDBT 2009).
//
// ROAD evaluates location-dependent spatial queries — k-nearest-neighbour
// and range search over points of interest — on large road networks. The
// network is recursively partitioned into regional sub-networks (Rnets)
// augmented with shortcuts (precomputed shortest paths between region
// border nodes) and object abstracts (summaries of the objects inside each
// region). A search expands from the query point like Dijkstra, but hops
// over entire object-free regions via shortcuts instead of crawling them
// edge by edge.
//
// # The Store v1 API
//
// One logical search service hides behind the Store interface, with three
// implementations: DB (a single index), ShardedDB (K region shards behind
// a query router, the deployment shape for big networks) and RemoteDB
// (the same router over shards served by out-of-process roadshard hosts).
// The last two are one implementation over the router — they embed the
// same base and differ only in where persistence lives: per-shard files
// and journals for a ShardedDB, the hosts for a RemoteDB. Code written
// against Store runs unchanged over any of them.
//
// Queries take a context and a typed request built with functional
// options:
//
//	b := road.NewNetworkBuilder()
//	a := b.AddNode(0, 0)
//	c := b.AddNode(1, 0)
//	e, _ := b.AddRoad(a, c, 1.5)
//	db, _ := road.Open(b, road.Options{})
//	db.AddObject(e, 0.5, 0) // a POI mid-road
//
//	hits, stats, err := db.KNNContext(ctx, road.NewKNN(a, 1))
//	near, _, err := db.WithinContext(ctx, road.NewWithin(a, 2.0, road.WithAttr(7)))
//
// Cancellation is cooperative: search loops poll the context every few
// heap pops, so an expired deadline aborts an in-flight expansion within
// microseconds, returning ErrCanceled plus the valid prefix settled so
// far with Stats.Truncated set. WithBudget bounds a query by settled
// nodes instead of time. Errors are typed sentinels — test with
// errors.Is against ErrNoSuchNode, ErrEdgeClosed, ErrCanceled, and
// friends.
//
// Batches amortize session and epoch acquisition:
//
//	k := road.NewKNN(a, 3)
//	w := road.NewWithin(c, 1.0)
//	answers := db.Query(ctx, []road.Request{{KNN: &k}, {Within: &w}})
//
// Concurrent readers take one Querier each from Store.OpenSession: a
// Session on a DB, a RouterSession on a ShardedDB or a RemoteDB. Every
// store locks itself, so queries and mutations may overlap: a DB holds
// one store-wide reader/writer lock, the router-backed stores per-shard
// write locks, so there a mutation stalls only readers of the one shard
// it touches. Store.Exclusive quiesces the whole store for a consistent
// snapshot save.
//
// The store separates the network from the objects: road closures,
// distance (or travel-time) changes and object churn are all incremental
// — a ShardedDB repairs the touched shard's border distance tables with
// the paper's §5.2 filter-and-refresh technique rather than rebuilding
// them — and snapshots plus a write-ahead journal (Save, CompactJournal,
// OpenSnapshotFile, ReplayJournal) make restarts O(load) instead of
// O(build).
//
// The ctx-less v0 methods (KNN, Within, PathTo) are gone; MIGRATION.md
// maps old signatures and type names to new.
package road
