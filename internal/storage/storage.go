// Package storage is an EVALUATION ARTIFACT: it simulates the disk
// environment of the paper's evaluation (§6) — fixed-size 4 KB pages
// behind an LRU buffer of 50 pages, with logical-read, page-fault and
// write accounting. Index structures register variable-size records into
// a Layout that packs them onto pages (in a caller-chosen order — the
// CCAM-style connectivity clustering of [18] is approximated by Hilbert
// ordering of node coordinates, see ClusterNodes), and route every
// record access through a Store so the I/O metrics the paper reports
// (pages read per query, index size in pages) come out of the same
// machinery for every competing approach.
//
// The serving query path does NOT come through here: sessions traverse
// the CSR slabs in internal/core/csr.go, which bake the same overlay
// into flat arrays with no page indirection, and a framework is built
// over a Store only when its configuration asks for one
// (core.Config.BufferPages > 0): the paper's experiments and roadbench
// figures do; road, roadd and snapshots never do.
package storage

import (
	"fmt"
	"sort"

	"road/internal/geom"
	"road/internal/graph"
)

// PageSize is the simulated disk page size in bytes (4 KB, as in §6).
const PageSize = 4096

// DefaultBufferPages is the evaluation's LRU buffer capacity (50 pages).
const DefaultBufferPages = 50

// PageID identifies a simulated disk page.
type PageID = int64

// Stats accumulates I/O counters for one store.
type Stats struct {
	// Reads counts logical page reads (buffer hits + faults).
	Reads int64
	// Faults counts reads that missed the buffer (physical I/O).
	Faults int64
	// Writes counts page writes (always physical; write-through).
	Writes int64
}

// Sub returns the difference s − t, for measuring an interval.
func (s Stats) Sub(t Stats) Stats {
	return Stats{Reads: s.Reads - t.Reads, Faults: s.Faults - t.Faults, Writes: s.Writes - t.Writes}
}

// lruBuffer is a fixed-capacity LRU page cache.
type lruBuffer struct {
	capacity int
	entries  map[PageID]*lruNode
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
}

type lruNode struct {
	page       PageID
	prev, next *lruNode
}

func newLRU(capacity int) *lruBuffer {
	return &lruBuffer{capacity: capacity, entries: make(map[PageID]*lruNode, capacity)}
}

// touch records an access to page p, returning true on a hit.
// On a miss the page is admitted, evicting the LRU page when full.
func (b *lruBuffer) touch(p PageID) bool {
	if n, ok := b.entries[p]; ok {
		b.moveToFront(n)
		return true
	}
	if b.capacity <= 0 {
		return false
	}
	if len(b.entries) >= b.capacity {
		evict := b.tail
		b.unlink(evict)
		delete(b.entries, evict.page)
	}
	n := &lruNode{page: p}
	b.entries[p] = n
	b.pushFront(n)
	return false
}

func (b *lruBuffer) contains(p PageID) bool {
	_, ok := b.entries[p]
	return ok
}

func (b *lruBuffer) reset() {
	b.entries = make(map[PageID]*lruNode, b.capacity)
	b.head, b.tail = nil, nil
}

func (b *lruBuffer) pushFront(n *lruNode) {
	n.prev = nil
	n.next = b.head
	if b.head != nil {
		b.head.prev = n
	}
	b.head = n
	if b.tail == nil {
		b.tail = n
	}
}

func (b *lruBuffer) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
}

func (b *lruBuffer) moveToFront(n *lruNode) {
	if b.head == n {
		return
	}
	b.unlink(n)
	b.pushFront(n)
}

// Store is a simulated paged disk with an LRU buffer and I/O counters.
type Store struct {
	buf   *lruBuffer
	stats Stats
	pages PageID // number of allocated pages
}

// NewStore returns a store buffering up to bufferPages pages
// (DefaultBufferPages when 0).
func NewStore(bufferPages int) *Store {
	if bufferPages == 0 {
		bufferPages = DefaultBufferPages
	}
	return &Store{buf: newLRU(bufferPages)}
}

// Alloc reserves n fresh pages and returns the ID of the first.
func (s *Store) Alloc(n int) PageID {
	first := s.pages
	s.pages += PageID(n)
	return first
}

// NumPages returns the number of allocated pages (the index-size metric:
// NumPages × PageSize bytes).
func (s *Store) NumPages() int64 { return int64(s.pages) }

// SizeBytes returns the total allocated size in bytes.
func (s *Store) SizeBytes() int64 { return int64(s.pages) * PageSize }

// Read records a logical read of page p through the buffer.
func (s *Store) Read(p PageID) {
	s.stats.Reads++
	if !s.buf.touch(p) {
		s.stats.Faults++
	}
}

// Write records a write of page p (write-through: always physical).
// The written page is also admitted to the buffer.
func (s *Store) Write(p PageID) {
	s.stats.Writes++
	s.buf.touch(p)
}

// Cached reports whether page p is currently buffered.
func (s *Store) Cached(p PageID) bool { return s.buf.contains(p) }

// Stats returns the accumulated counters.
func (s *Store) Stats() Stats { return s.stats }

// ResetStats zeroes the counters, keeping buffer contents.
func (s *Store) ResetStats() { s.stats = Stats{} }

// DropCache empties the buffer (the paper starts every query run with an
// empty cache) without touching counters.
func (s *Store) DropCache() { s.buf.reset() }

// Layout packs variable-size records onto consecutive pages of a Store and
// remembers which pages each record occupies. Records are laid out in the
// order Place is called; callers choose that order to control clustering.
type Layout struct {
	store   *Store
	first   PageID
	curPage PageID
	curUsed int
	spans   map[int64]span
	bytes   int64
}

type span struct {
	first PageID
	count int32
}

// NewLayout starts a layout on fresh pages of store.
func NewLayout(store *Store) *Layout {
	l := &Layout{store: store, spans: make(map[int64]span)}
	l.first = store.Alloc(1)
	l.curPage = l.first
	return l
}

// Place appends a record of size bytes under the given key and returns the
// first page it occupies. Records larger than a page span multiple pages;
// small records share pages. Size 0 records are rounded up to 1 byte so
// every record is addressable.
func (l *Layout) Place(key int64, size int) PageID {
	if size <= 0 {
		size = 1
	}
	if _, dup := l.spans[key]; dup {
		panic(fmt.Sprintf("storage: duplicate record key %d", key))
	}
	l.bytes += int64(size)
	if l.curUsed+size > PageSize && l.curUsed > 0 {
		// Does not fit in the remainder: start a new page.
		l.curPage = l.store.Alloc(1)
		l.curUsed = 0
	}
	first := l.curPage
	remaining := size - (PageSize - l.curUsed)
	pages := int32(1)
	for remaining > 0 {
		l.curPage = l.store.Alloc(1)
		l.curUsed = 0
		pages++
		remaining -= PageSize
	}
	l.curUsed += size
	for l.curUsed > PageSize {
		l.curUsed -= PageSize
	}
	l.spans[key] = span{first: first, count: pages}
	return first
}

// Read routes a read of the record under key through the store's buffer,
// touching every page the record spans. Unknown keys are a no-op (the
// Association Directory omits empty nodes/Rnets entirely).
func (l *Layout) Read(key int64) {
	sp, ok := l.spans[key]
	if !ok {
		return
	}
	for i := int32(0); i < sp.count; i++ {
		l.store.Read(sp.first + PageID(i))
	}
}

// Write routes a write of the record under key through the store.
// Unknown keys are a no-op.
func (l *Layout) Write(key int64) {
	sp, ok := l.spans[key]
	if !ok {
		return
	}
	for i := int32(0); i < sp.count; i++ {
		l.store.Write(sp.first + PageID(i))
	}
}

// Has reports whether a record was placed under key.
func (l *Layout) Has(key int64) bool {
	_, ok := l.spans[key]
	return ok
}

// Pages returns the number of pages spanned by the record under key
// (0 if absent).
func (l *Layout) Pages(key int64) int {
	return int(l.spans[key].count)
}

// Bytes returns the total record payload placed so far.
func (l *Layout) Bytes() int64 { return l.bytes }

// ClusterNodes returns the graph's node IDs ordered by Hilbert rank of
// their coordinates — the storage order approximating CCAM's
// connectivity-clustered access method [18]: nodes adjacent on the map
// land on the same or neighbouring pages.
func ClusterNodes(g *graph.Graph) []graph.NodeID {
	bounds := g.Bounds()
	const order = 16
	type ranked struct {
		id   graph.NodeID
		rank uint64
	}
	rs := make([]ranked, g.NumNodes())
	for i := range rs {
		id := graph.NodeID(i)
		rs[i] = ranked{id: id, rank: geom.HilbertRank(order, bounds, g.Coord(id))}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].rank != rs[j].rank {
			return rs[i].rank < rs[j].rank
		}
		return rs[i].id < rs[j].id
	})
	out := make([]graph.NodeID, len(rs))
	for i, r := range rs {
		out[i] = r.id
	}
	return out
}
