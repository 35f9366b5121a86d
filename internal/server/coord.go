package server

import "sync"

// Coordinator is the reader/writer layer between the HTTP handlers and
// the served road.Store. It runs in one of two modes, chosen by how much
// synchronization the store itself provides:
//
//   - Externally coordinated (NewCoordinator; road.DB): the store does no
//     internal locking, so the Coordinator lifts the library's "sessions
//     must not overlap with maintenance" contract into an enforced
//     guarantee with one store-wide RWMutex. Any number of readers run
//     concurrently under the read lock; a writer waits out in-flight
//     readers and runs exclusively.
//
//   - Self-coordinated (NewSelfCoordinated; road.ShardedDB, road.RemoteDB
//     and any other road.Synchronized store): queries and mutations
//     synchronize internally with per-shard write locks, so the
//     Coordinator imposes no locking at all — a mutation stalls only
//     readers of its own shard, not the whole server. Whole-store
//     exclusion (snapshot saves) delegates to the store's Exclusive.
//
// The epoch itself is owned by the underlying store — every successful
// mutation bumps it — so the Coordinator only observes it. In the locked
// mode the epoch a reader sees is the epoch its whole query executes
// under, because no writer can intervene while it holds the read lock.
// In the self-coordinated mode that guarantee is replaced by Read's
// return value: it reports whether the epoch was stable across the
// reader's execution, and the result cache only admits answers from
// stable reads — which keeps epoch-keyed caching sound in both modes.
type Coordinator struct {
	mu        *sync.RWMutex // nil in self-coordinated mode
	epoch     func() uint64
	exclusive func(fn func() error) error // non-nil in self-coordinated mode
}

// NewCoordinator wraps an epoch source (typically the served
// road.Store's Epoch method) in the externally-coordinated mode: one
// store-wide reader/writer lock.
func NewCoordinator(epoch func() uint64) *Coordinator {
	return &Coordinator{mu: &sync.RWMutex{}, epoch: epoch}
}

// NewSelfCoordinated returns a pass-through Coordinator for stores that
// synchronize internally (road.Synchronized): Read and Write impose no
// locking, Exclusive delegates to the store's own whole-store exclusion.
func NewSelfCoordinated(epoch func() uint64, exclusive func(fn func() error) error) *Coordinator {
	return &Coordinator{epoch: epoch, exclusive: exclusive}
}

// Read runs fn as a reader and reports whether the epoch passed to fn
// was stable for fn's whole execution. In the locked mode that is always
// true (maintenance cannot run until fn returns); in the self-coordinated
// mode it is true exactly when no mutation completed while fn ran, which
// is the condition under which fn's results may be cached at that epoch.
func (c *Coordinator) Read(fn func(epoch uint64)) bool {
	if c.mu != nil {
		c.mu.RLock()
		defer c.mu.RUnlock()
		fn(c.epoch())
		return true
	}
	e := c.epoch()
	fn(e)
	return c.epoch() == e
}

// Write runs one mutation and returns the post-mutation epoch alongside
// fn's error. In the locked mode fn runs exclusively, after in-flight
// readers drain; in the self-coordinated mode fn runs directly — the
// store's own per-shard locks provide the exclusion, scoped to the shard
// the mutation actually touches.
func (c *Coordinator) Write(fn func() error) (uint64, error) {
	if c.mu != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		err := fn()
		return c.epoch(), err
	}
	err := fn()
	return c.epoch(), err
}

// Exclusive runs fn with the entire store quiesced — no overlapping
// queries or mutations in either mode — for operations that need one
// consistent whole-store view, such as snapshot saves.
func (c *Coordinator) Exclusive(fn func() error) (uint64, error) {
	if c.mu != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		err := fn()
		return c.epoch(), err
	}
	err := c.exclusive(fn)
	return c.epoch(), err
}

// Epoch returns the current maintenance epoch without coordinating; use
// it for monitoring, not for tagging query results.
func (c *Coordinator) Epoch() uint64 { return c.epoch() }
