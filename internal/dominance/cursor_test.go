package dominance

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"sfccover/internal/cubes"
	"sfccover/internal/obs"
)

// assertNoSliceHeld fails unless every slice's write lock is free, i.e.
// no read lock outlived the query that took it.
func assertNoSliceHeld(t *testing.T, x *ShardedIndex, label string) {
	t.Helper()
	for i := range x.shards {
		if !x.shards[i].mu.TryLock() {
			t.Fatalf("%s: slice %d is still locked after the query returned", label, i)
		}
		x.shards[i].mu.Unlock()
	}
}

// TestHeldSliceReleasedOnEveryExit drives every way out of
// ShardedIndex.QueryTraced, traced and untraced, and checks after each
// that the query's slice cursor left no slice locked: a hit, a miss at
// the volume target, a MaxCubes cap, a cache-replay hit, a partial
// cache entry rerun after its hit was deleted, and an exhaustive
// ErrCubeLimit. Every query repeats three times so each path also runs
// through the cache's first-touch, recording and replay passes.
func TestHeldSliceReleasedOnEveryExit(t *testing.T) {
	cfg := Config{Dims: 2, Bits: 8, MaxCubes: 40, Seed: 3}
	for _, traced := range []bool{false, true} {
		fresh := func(pts ...[]uint32) *ShardedIndex {
			x, err := NewSharded(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			if traced {
				x.SetObserver(obs.New(obs.Config{}))
			}
			for i, p := range pts {
				x.Insert(p, uint64(i+1))
			}
			return x
		}
		query := func(x *ShardedIndex, label string, q []uint32, eps float64) (bool, Stats, error) {
			t.Helper()
			var tr *obs.QueryTrace
			if traced {
				tr = &obs.QueryTrace{}
			}
			_, ok, st, err := x.QueryTraced(q, eps, tr)
			assertNoSliceHeld(t, x, label)
			return ok, st, err
		}
		// Stable-outcome paths, three touches each: the third touch of a
		// cacheable shape is a replay.
		x := fresh([]uint32{200, 200}, []uint32{1, 1})
		for touch := 1; touch <= 3; touch++ {
			if ok, _, err := query(x, "hit", []uint32{10, 10}, 0.3); err != nil || !ok {
				t.Fatalf("traced=%v touch %d: hit query = (%v, %v), want a hit", traced, touch, ok, err)
			}
			ok, st, err := query(x, "volume-target miss", []uint32{201, 3}, 0.3)
			if err != nil || ok || st.CubesGenerated >= cfg.MaxCubes || st.VolumeFraction < 0.7 {
				t.Fatalf("traced=%v touch %d: want a miss at the volume target, got (%v, %v) %+v", traced, touch, ok, err, st)
			}
			ok, st, err = query(x, "capped miss", []uint32{201, 3}, 0.01)
			if err != nil || ok || st.CubesGenerated != cfg.MaxCubes {
				t.Fatalf("traced=%v touch %d: want a miss at the cube cap, got (%v, %v) %+v", traced, touch, ok, err, st)
			}
			if _, _, err := query(x, "cube limit", []uint32{201, 3}, 0); !errors.Is(err, cubes.ErrCubeLimit) {
				t.Fatalf("traced=%v touch %d: exhaustive query err = %v, want ErrCubeLimit", traced, touch, err)
			}
		}
		if hits, _ := x.CacheStats(); hits == 0 {
			t.Fatalf("traced=%v: no query replayed a cache entry", traced)
		}

		// Partial entry: the recording ends at the hit; once the hit is
		// deleted the replayed prefix misses and the search reruns.
		x = fresh([]uint32{150, 150})
		for touch := 1; touch <= 2; touch++ {
			if ok, _, err := query(x, "partial record", []uint32{100, 100}, 0.3); err != nil || !ok {
				t.Fatalf("traced=%v touch %d: want a hit, got (%v, %v)", traced, touch, ok, err)
			}
		}
		if !x.Delete([]uint32{150, 150}, 1) {
			t.Fatal("delete of the hit failed")
		}
		before, _ := x.CacheStats()
		if ok, _, err := query(x, "partial rerun", []uint32{100, 100}, 0.3); err != nil || ok {
			t.Fatalf("traced=%v: rerun after delete = (%v, %v), want a miss", traced, ok, err)
		}
		if after, _ := x.CacheStats(); after != before+1 {
			t.Fatalf("traced=%v: rerun did not start from a cache hit (hits %d -> %d)", traced, before, after)
		}
	}
}

// TestHeldSliceProbeDuringMigration: while a mover keeps shifting slice
// boundaries, queries that hold slice read locks across probes — and
// fall back to the validated path on runs that straddle a boundary —
// must answer exactly like a single-array index: same id, same found,
// same Stats. The query population is stable; the mover only inserts
// and deletes churn points outside every query region (first coordinate
// 0, while every query's is at least 1), which skew the slice loads so
// EqualizePair keeps migrating the stable entries. Meaningful under
// -race.
func TestHeldSliceProbeDuringMigration(t *testing.T) {
	cfg := Config{Dims: 2, Bits: 8, MaxCubes: 3000, Seed: 9}
	x, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	single := MustIndex(cfg)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 80; i++ {
		p := []uint32{1 + uint32(rng.Intn(255)), 1 + uint32(rng.Intn(255))}
		x.Insert(p, uint64(i))
		single.Insert(p, uint64(i))
	}
	// Balance the stable population first, so the boundaries start off
	// the key-prefix grid and runs straddle them from the first query.
	for i := 0; i+1 < x.NumShards(); i++ {
		x.EqualizePair(i)
	}
	type answer struct {
		id    uint64
		ok    bool
		stats Stats
		err   error
	}
	const nQueries = 200
	queries := make([][]uint32, nQueries)
	epss := make([]float64, nQueries)
	want := make([]answer, nQueries)
	for i := range queries {
		queries[i] = []uint32{1 + uint32(rng.Intn(255)), 1 + uint32(rng.Intn(255))}
		if i%2 == 1 {
			epss[i] = 0.3
		}
		a := &want[i]
		a.id, a.ok, a.stats, a.err = single.Query(queries[i], epss[i])
		if a.err != nil {
			t.Fatal(a.err)
		}
	}

	stop := make(chan struct{})
	moverDone := make(chan struct{})
	started := make(chan struct{}) // closed once a round has moved boundaries
	var moved atomic.Int64
	go func() {
		defer close(moverDone)
		var once sync.Once
		defer once.Do(func() { close(started) })
		mrng := rand.New(rand.NewSource(31))
		equalizeAll := func() {
			for i := 0; i+1 < x.NumShards(); i++ {
				moved.Add(int64(x.EqualizePair(i)))
			}
		}
		churn := make([][]uint32, 300)
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			c := uint32(mrng.Intn(248))
			for j := range churn {
				churn[j] = []uint32{0, c + uint32(mrng.Intn(8))}
				x.Insert(churn[j], uint64(1_000_000+j))
			}
			equalizeAll()
			once.Do(func() { close(started) })
			for j, p := range churn {
				if !x.Delete(p, uint64(1_000_000+j)) {
					t.Errorf("round %d: churn delete %d failed", round, j)
					return
				}
			}
			equalizeAll()
		}
	}()

	<-started
	var straddles atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for i := range queries {
					qi := (i + g*nQueries/4) % nQueries
					var tr *obs.QueryTrace
					if (i+pass)%2 == 0 {
						tr = &obs.QueryTrace{}
					}
					var got answer
					got.id, got.ok, got.stats, got.err = x.QueryTraced(queries[qi], epss[qi], tr)
					if got.err != nil || got.id != want[qi].id || got.ok != want[qi].ok || !reflect.DeepEqual(got.stats, want[qi].stats) {
						t.Errorf("goroutine %d query %d eps %g: (%d, %v, %v) %+v, single index (%d, %v) %+v",
							g, qi, epss[qi], got.id, got.ok, got.err, got.stats, want[qi].id, want[qi].ok, want[qi].stats)
						return
					}
					if tr != nil {
						touched := 0
						for _, n := range tr.Slices {
							touched += n
						}
						if touched > got.stats.RunsProbed {
							straddles.Add(1)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-moverDone
	if moved.Load() == 0 {
		t.Fatal("the mover migrated nothing; boundaries never moved")
	}
	if straddles.Load() == 0 {
		t.Fatal("no traced query touched more slices than it probed runs; the straddle path never ran")
	}
	if n := x.Len(); n != single.Len() {
		t.Fatalf("Len = %d after the churn, want %d", n, single.Len())
	}
	assertNoSliceHeld(t, x, "after the concurrent queries")
}

// TestHeldSliceQueryZeroAlloc: a warm untraced sharded query checks out
// a pooled scratch whose cursor probe is already bound, so it allocates
// nothing.
func TestHeldSliceQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops scratches on purpose")
	}
	x, err := NewSharded(Config{Dims: 3, Bits: 6, MaxCubes: 500, Seed: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i, p := range randomPoints(rng, 500, 3, 6) {
		x.Insert(p, uint64(i))
	}
	queries := randomPoints(rng, 16, 3, 6)
	for pass := 0; pass < 3; pass++ { // register, record, then replay
		for _, q := range queries {
			if _, _, _, err := x.Query(q, 0.3); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, _, err := x.Query(queries[i%len(queries)], 0.3); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("warm sharded Query allocates %.1f allocs/op, want 0", allocs)
	}
	assertNoSliceHeld(t, x, "after the warm queries")
}
