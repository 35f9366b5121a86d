package road

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"road/internal/dataset"
)

// The cancellation acceptance suite: a Within with a huge radius on the
// CA network must abort promptly mid-search under both DB and ShardedDB,
// returning ErrCanceled with Stats marking the partial result. Run under
// -race in CI (the ctx poll sits on the hot search path).

// caStores lazily builds one CA-quarter DB and ShardedDB pair shared by
// the cancellation tests (building twice per test would dominate -race
// runs). Tests must not mutate them.
var caStores struct {
	once sync.Once
	db   *DB
	sdb  *ShardedDB
}

func caPair(t *testing.T) (*DB, *ShardedDB) {
	t.Helper()
	caStores.once.Do(func() {
		g := dataset.MustGenerate(dataset.Scaled(dataset.CA(), 0.25))
		set := dataset.PlaceUniform(g, 500, 1, 0, 1, 2, 3)
		g2 := g.Clone()
		set2 := set.Clone(g2)
		db, err := OpenWithObjects(FromGraph(g), set, Options{Seed: 1})
		if err != nil {
			t.Fatalf("Open CA: %v", err)
		}
		sdb, err := OpenShardedWithObjects(FromGraph(g2), set2, Options{Seed: 1}, 4)
		if err != nil {
			t.Fatalf("OpenSharded CA: %v", err)
		}
		caStores.db, caStores.sdb = db, sdb
	})
	if caStores.db == nil {
		t.Fatal("CA store construction failed earlier")
	}
	return caStores.db, caStores.sdb
}

// countdownCtx is a context whose Err() flips to Canceled after a fixed
// number of polls — a deterministic way to cancel a search mid-flight,
// independent of machine speed. The search loop polls every 64 settled
// nodes, so cancellation after N polls must abort within ~64·(N+1)
// settled nodes: the pop-bounded promptness the <10ms acceptance rests
// on (64 pops is microseconds of work).
type countdownCtx struct {
	mu    sync.Mutex
	calls int
	after int
	done  chan struct{}
}

func newCountdownCtx(after int) *countdownCtx {
	return &countdownCtx{after: after, done: make(chan struct{})}
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return c.done }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// hugeRadius comfortably covers the whole CA-quarter network.
const hugeRadius = 1e6

func assertCanceledWithin(t *testing.T, label string, res []Result, stats Stats, err error, maxPops int) {
	t.Helper()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("%s: err = %v, want ErrCanceled", label, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: err %v does not wrap context.Canceled", label, err)
	}
	if !stats.Truncated {
		t.Fatalf("%s: Stats.Truncated not set on canceled search", label)
	}
	if stats.NodesPopped > maxPops {
		t.Fatalf("%s: settled %d nodes after cancellation, want ≤ %d (not prompt)", label, stats.NodesPopped, maxPops)
	}
	// The prefix must be sorted ascending — a valid partial answer.
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatalf("%s: partial result not sorted at %d", label, i)
		}
	}
}

func TestCancelWithinMidSearchDB(t *testing.T) {
	db, _ := caPair(t)
	// Sanity: the uncanceled search settles (almost) the whole network,
	// so the canceled run below provably stops mid-search.
	full, fullStats, err := db.WithinContext(context.Background(), NewWithin(0, hugeRadius))
	if err != nil {
		t.Fatal(err)
	}
	if fullStats.NodesPopped < 1000 || len(full) == 0 {
		t.Fatalf("CA search too small to exercise cancellation: %d pops", fullStats.NodesPopped)
	}

	const polls = 3
	ctx := newCountdownCtx(polls)
	res, stats, err := db.WithinContext(ctx, NewWithin(0, hugeRadius))
	assertCanceledWithin(t, "db within", res, stats, err, 64*(polls+1))
	if stats.NodesPopped >= fullStats.NodesPopped {
		t.Fatalf("canceled search settled the full network (%d pops)", stats.NodesPopped)
	}
}

func TestCancelWithinMidSearchSharded(t *testing.T) {
	_, sdb := caPair(t)
	full, fullStats, err := sdb.WithinContext(context.Background(), NewWithin(0, hugeRadius))
	if err != nil {
		t.Fatal(err)
	}
	if fullStats.NodesPopped < 1000 || len(full) == 0 {
		t.Fatalf("CA sharded search too small: %d pops", fullStats.NodesPopped)
	}

	const polls = 3
	ctx := newCountdownCtx(polls)
	res, stats, err := sdb.WithinContext(ctx, NewWithin(0, hugeRadius))
	assertCanceledWithin(t, "sharded within", res, stats, err, 64*(polls+1))
	if stats.NodesPopped >= fullStats.NodesPopped {
		t.Fatalf("canceled sharded search settled everything (%d pops)", stats.NodesPopped)
	}
}

// TestCancelPromptWallClock is the wall-clock face of promptness: a
// pre-canceled context must come back ErrCanceled far inside the 10ms
// acceptance bound instead of running the full CA expansion.
func TestCancelPromptWallClock(t *testing.T) {
	db, sdb := caPair(t)
	for _, tc := range []struct {
		name  string
		store Store
	}{{"db", db}, {"sharded", sdb}} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		_, stats, err := tc.store.WithinContext(ctx, NewWithin(0, hugeRadius))
		elapsed := time.Since(start)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", tc.name, err)
		}
		if !stats.Truncated {
			t.Fatalf("%s: Truncated not set", tc.name)
		}
		// 500ms is orders of magnitude above the cooperative check
		// interval; generous to keep CI machines honest but unflaky.
		if elapsed > 500*time.Millisecond {
			t.Fatalf("%s: canceled search took %v", tc.name, elapsed)
		}
	}
}

// TestDeadlineExceededWrapsBoth: a deadline-canceled query reports both
// ErrCanceled and context.DeadlineExceeded identities.
func TestDeadlineExceededWrapsBoth(t *testing.T) {
	db, _ := caPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // deadline definitely past
	_, _, err := db.WithinContext(ctx, NewWithin(0, hugeRadius))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// TestCancelPathTo: path queries honour the context too, in process and
// across a fleet's wire.
func TestCancelPathTo(t *testing.T) {
	_, sdb := caPair(t)
	_, rdb, _ := remoteTriple(t, 3, 600, 60, 4)
	for _, tc := range []struct {
		name  string
		store Store
	}{{"sharded", sdb}, {"fleet", rdb}} {
		// Find any reachable object for a valid target.
		hits, _, err := tc.store.KNNContext(context.Background(), NewKNN(0, 1))
		if err != nil || len(hits) == 0 {
			t.Fatalf("%s: no object to route to: %v", tc.name, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _, err = tc.store.PathToContext(ctx, NewPath(0, hits[0].Object.ID))
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s path err = %v, want ErrCanceled", tc.name, err)
		}
	}
}

// TestBudgetExhausted: the traversal budget truncates with the typed
// error and a pop count honouring the bound (one check interval slack).
func TestBudgetExhausted(t *testing.T) {
	db, sdb := caPair(t)
	for _, tc := range []struct {
		name  string
		store Store
	}{{"db", db}, {"sharded", sdb}} {
		const budget = 100
		res, stats, err := tc.store.WithinContext(context.Background(),
			NewWithin(0, hugeRadius, WithBudget(budget)))
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("%s: err = %v, want ErrBudgetExhausted", tc.name, err)
		}
		if !stats.Truncated {
			t.Fatalf("%s: Truncated not set", tc.name)
		}
		if stats.NodesPopped > budget+64 {
			t.Fatalf("%s: settled %d nodes on a %d budget", tc.name, stats.NodesPopped, budget)
		}
		for i := 1; i < len(res); i++ {
			if res[i].Dist < res[i-1].Dist {
				t.Fatalf("%s: truncated result unsorted", tc.name)
			}
		}
	}

	// Routes: the first settled node of the first leg exhausts a budget of
	// one, in process and on a fleet's hosts alike.
	_, rdb, _ := remoteTriple(t, 3, 600, 60, 4)
	for _, tc := range []struct {
		name  string
		store Store
	}{{"sharded", sdb}, {"fleet", rdb}} {
		hits, _, err := tc.store.KNNContext(context.Background(), NewKNN(0, 1))
		if err != nil || len(hits) == 0 {
			t.Fatalf("%s: no object to route to: %v", tc.name, err)
		}
		_, stats, err := tc.store.PathToContext(context.Background(),
			NewPath(0, hits[0].Object.ID, WithBudget(1)))
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("%s path: err = %v, want ErrBudgetExhausted", tc.name, err)
		}
		if !stats.Truncated {
			t.Fatalf("%s path: Truncated not set", tc.name)
		}
	}
}
