package server

import (
	"container/list"
	"math"
	"sync"

	"road"
)

// CacheKey identifies one query shape. Radius is stored as float bits so
// the struct is comparable and NaN-free keys hash consistently.
type CacheKey struct {
	Kind       byte // 'k' = kNN, 'w' = within
	Node       road.NodeID
	K          int
	RadiusBits uint64
	Attr       int32
}

// KNNKey builds the cache key for a kNN query.
func KNNKey(node road.NodeID, k int, attr int32) CacheKey {
	return CacheKey{Kind: 'k', Node: node, K: k, Attr: attr}
}

// WithinKey builds the cache key for a range query.
func WithinKey(node road.NodeID, radius float64, attr int32) CacheKey {
	return CacheKey{Kind: 'w', Node: node, RadiusBits: math.Float64bits(radius), Attr: attr}
}

// CachedAnswer is a memoized query answer, held encoded: body is the
// `"results":[…],"stats":{…}` fragment of the QueryResponse (appendAnswer),
// which a hit copies between its own per-request fields, and results is
// the answer's length, for the query log. body is shared read-only:
// handlers must not mutate it.
type CachedAnswer struct {
	body    []byte
	results int
}

// ResultCache is an LRU memo of query answers, valid for exactly one
// maintenance epoch. Instead of tagging entries individually, the cache
// remembers the epoch its whole contents belong to and purges itself the
// first time it is consulted at a newer epoch — maintenance operations
// pay nothing, and readers pay one cheap comparison. Epochs only grow
// (the DB counter is monotonic), so a purge can never resurrect stale
// answers.
type ResultCache struct {
	mu    sync.Mutex
	cap   int
	epoch uint64
	ll    *list.List // front = most recently used
	items map[CacheKey]*list.Element

	hits          uint64
	misses        uint64
	evictions     uint64
	invalidations uint64
}

type cacheEntry struct {
	key CacheKey
	val CachedAnswer
}

// DefaultCacheSize bounds the cache when Options leave it zero.
const DefaultCacheSize = 4096

// NewResultCache returns an LRU cache holding up to capacity answers
// (DefaultCacheSize when 0; capacity < 0 is treated as a disabled cache
// of size 0 by the Server, not here).
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &ResultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[CacheKey]*list.Element, capacity),
	}
}

// Get looks up key at the given maintenance epoch. A lookup at a newer
// epoch than the cache contents purges everything first.
func (c *ResultCache) Get(key CacheKey, epoch uint64) (CachedAnswer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncEpoch(epoch)
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return CachedAnswer{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).val, true
}

// Put stores an answer computed at the given epoch, evicting the least
// recently used entry when full. An answer from an older epoch than the
// cache has already seen is dropped — it is stale by definition.
func (c *ResultCache) Put(key CacheKey, epoch uint64, val CachedAnswer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncEpoch(epoch)
	if epoch < c.epoch {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
}

// syncEpoch purges the cache if the observed epoch has moved past the
// contents. Caller holds c.mu.
func (c *ResultCache) syncEpoch(epoch uint64) {
	if epoch <= c.epoch {
		return
	}
	if c.ll.Len() > 0 {
		c.invalidations++
		c.ll.Init()
		clear(c.items)
	}
	c.epoch = epoch
}

// Len returns the current number of cached answers.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats reports cache effectiveness.
type CacheStats struct {
	Entries       int     `json:"entries"`
	Capacity      int     `json:"capacity"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Evictions     uint64  `json:"evictions"`
	Invalidations uint64  `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"`
}

// Stats snapshots the cache counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Entries:       c.ll.Len(),
		Capacity:      c.cap,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
	if total := c.hits + c.misses; total > 0 {
		st.HitRate = float64(c.hits) / float64(total)
	}
	return st
}
