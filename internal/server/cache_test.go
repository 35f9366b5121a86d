package server

import (
	"testing"

	"road"
)

// cachedDist is the cache entry of a one-result answer at distance d,
// encoded the way serveQuery encodes a miss.
func cachedDist(t *testing.T, d float64) CachedAnswer {
	t.Helper()
	res := []road.Result{{Dist: d}}
	body, err := appendAnswer(nil, res, road.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	return CachedAnswer{body: body, results: len(res)}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := NewResultCache(2)
	k1 := KNNKey(1, 1, 0)
	k2 := KNNKey(2, 1, 0)
	k3 := KNNKey(3, 1, 0)
	c.Put(k1, 0, CachedAnswer{})
	c.Put(k2, 0, CachedAnswer{})
	c.Get(k1, 0) // refresh k1: k2 becomes LRU
	c.Put(k3, 0, CachedAnswer{})
	if _, ok := c.Get(k2, 0); ok {
		t.Fatal("LRU entry k2 survived eviction")
	}
	if _, ok := c.Get(k1, 0); !ok {
		t.Fatal("recently used k1 was evicted")
	}
	if _, ok := c.Get(k3, 0); !ok {
		t.Fatal("newest entry k3 missing")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestResultCacheEpochInvalidation(t *testing.T) {
	c := NewResultCache(8)
	key := WithinKey(5, 1.25, 2)
	c.Put(key, 1, cachedDist(t, 1))
	if _, ok := c.Get(key, 1); !ok {
		t.Fatal("entry missing at its own epoch")
	}
	if _, ok := c.Get(key, 2); ok {
		t.Fatal("entry survived an epoch bump")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	// A straggler writing a stale answer after the bump must be ignored.
	c.Put(key, 1, cachedDist(t, 99))
	if _, ok := c.Get(key, 2); ok {
		t.Fatal("stale-epoch Put was accepted")
	}
}

func TestResultCacheDistinctKeys(t *testing.T) {
	c := NewResultCache(16)
	c.Put(KNNKey(1, 1, 0), 0, cachedDist(t, 1))
	if _, ok := c.Get(KNNKey(1, 2, 0), 0); ok {
		t.Fatal("k=2 hit a k=1 entry")
	}
	if _, ok := c.Get(KNNKey(1, 1, 3), 0); ok {
		t.Fatal("attr=3 hit an attr=0 entry")
	}
	if _, ok := c.Get(WithinKey(1, 1, 0), 0); ok {
		t.Fatal("within hit a knn entry")
	}
}

func TestSessionPoolReuse(t *testing.T) {
	db, _, _, _ := buildSquare(t, road.Options{})
	p := NewSessionPool(db, 2)
	s1 := p.Get()
	s2 := p.Get()
	p.Put(s1)
	p.Put(s2)
	if got := p.Get(); got != s2 {
		t.Fatal("pool is not LIFO")
	}
	p.Put(s2)
	st := p.Stats()
	if st.Created != 2 || st.Reused != 1 {
		t.Fatalf("pool stats = %+v, want 2 created / 1 reused", st)
	}
	// Beyond maxIdle, sessions are dropped rather than retained.
	p.Put(db.OpenSession())
	p.Put(db.OpenSession())
	if st := p.Stats(); st.Idle != 2 {
		t.Fatalf("idle = %d, want maxIdle cap of 2", st.Idle)
	}
}

func TestCoordinatorEpochSnapshot(t *testing.T) {
	db, _, _, e01 := buildSquare(t, road.Options{})
	coord := NewCoordinator(db.Epoch)
	var seen uint64
	coord.Read(func(epoch uint64) { seen = epoch })
	if seen != db.Epoch() {
		t.Fatalf("read epoch %d, want %d", seen, db.Epoch())
	}
	after, err := coord.Write(func() error { return db.SetRoadDistance(e01, 2) })
	if err != nil {
		t.Fatal(err)
	}
	if after != seen+1 {
		t.Fatalf("post-write epoch %d, want %d", after, seen+1)
	}
}
