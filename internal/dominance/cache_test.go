package dominance

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sfccover/internal/cubes"
	"sfccover/internal/geom"
)

// TestCacheBitIdentical is the cache's core contract: a cached index
// answers every query — id, found, and the full Stats record — bit-
// identically to an uncached one, on the first-touch pass (uncached
// fallback behind the admission filter), the build pass (build-then-
// replay) and the hit pass (pure replay), across curves, ε budgets and
// cube caps.
func TestCacheBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	configs := []Config{
		{Dims: 2, Bits: 6, Curve: "z"},
		{Dims: 2, Bits: 6, Curve: "hilbert", MaxCubes: 8},
		{Dims: 3, Bits: 5, Curve: "gray", MaxCubes: 64},
		{Dims: 3, Bits: 5, Curve: "hilbert"},
	}
	epsilons := []float64{0, 0.05, 0.3, 0.6}
	for _, cfg := range configs {
		cfg.Seed = 7
		cached := MustIndex(cfg)
		plainCfg := cfg
		plainCfg.CacheSize = -1
		plain := MustIndex(plainCfg)
		for i, p := range randomPoints(rng, 200, cfg.Dims, cfg.Bits) {
			cached.Insert(p, uint64(i))
			plain.Insert(p, uint64(i))
		}
		queries := randomPoints(rng, 80, cfg.Dims, cfg.Bits)
		for pass := 0; pass < 3; pass++ {
			for qi, q := range queries {
				eps := epsilons[qi%len(epsilons)]
				id1, ok1, st1, err1 := cached.Query(q, eps)
				id2, ok2, st2, err2 := plain.Query(q, eps)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s pass %d: error mismatch: %v vs %v", cfg.Curve, pass, err1, err2)
				}
				if id1 != id2 || ok1 != ok2 {
					t.Fatalf("%s pass %d q=%v eps=%g: answer mismatch: (%d,%v) vs (%d,%v)",
						cfg.Curve, pass, q, eps, id1, ok1, id2, ok2)
				}
				if !reflect.DeepEqual(st1, st2) {
					t.Fatalf("%s pass %d q=%v eps=%g: stats mismatch:\ncached:   %+v\nuncached: %+v",
						cfg.Curve, pass, q, eps, st1, st2)
				}
			}
		}
		hits, misses := cached.CacheStats()
		if hits == 0 || misses == 0 {
			t.Errorf("%s: expected both hits and misses, got hits=%d misses=%d", cfg.Curve, hits, misses)
		}
	}
}

// TestCacheAgreesWithOracle cross-checks the cached exhaustive search
// against the Linear oracle on both the miss and hit pass.
func TestCacheAgreesWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	cfg := Config{Dims: 2, Bits: 6, Seed: 3}
	idx := MustIndex(cfg)
	oracle := NewLinear()
	pts := randomPoints(rng, 300, cfg.Dims, cfg.Bits)
	for i, p := range pts {
		idx.Insert(p, uint64(i))
		oracle.Insert(p, uint64(i))
	}
	for _, q := range randomPoints(rng, 200, cfg.Dims, cfg.Bits) {
		// Three rounds: register with the admission filter, build, hit.
		for pass := 0; pass < 3; pass++ {
			_, ok := idx.QueryDominating(q)
			_, want := oracle.QueryDominating(q)
			if ok != want {
				t.Fatalf("pass %d q=%v: cached exhaustive=%v oracle=%v", pass, q, ok, want)
			}
		}
	}
}

// TestCacheCounters checks the hit/miss accounting under two-touch
// admission: the first occurrence registers (miss), the second builds
// (miss), the third and later replay (hit).
func TestCacheCounters(t *testing.T) {
	idx := MustIndex(Config{Dims: 2, Bits: 6})
	qs := [][]uint32{{1, 2}, {3, 4}, {5, 6}}
	for _, q := range qs {
		idx.Query(q, 0.25)
	}
	if h, m := idx.CacheStats(); h != 0 || m != 3 {
		t.Fatalf("after distinct queries: hits=%d misses=%d, want 0/3", h, m)
	}
	for _, q := range qs {
		idx.Query(q, 0.25)
	}
	if h, m := idx.CacheStats(); h != 0 || m != 6 {
		t.Fatalf("after the build pass: hits=%d misses=%d, want 0/6", h, m)
	}
	for _, q := range qs {
		idx.Query(q, 0.25)
	}
	if h, m := idx.CacheStats(); h != 3 || m != 6 {
		t.Fatalf("after repeats: hits=%d misses=%d, want 3/6", h, m)
	}
	// A different ε is a different budget, hence a different entry.
	idx.Query(qs[0], 0.5)
	if h, m := idx.CacheStats(); h != 3 || m != 7 {
		t.Fatalf("after new eps: hits=%d misses=%d, want 3/7", h, m)
	}
	// Distinct query points with identical region lens share an entry:
	// the key is the region geometry, not the point.
	idx2 := MustIndex(Config{Dims: 2, Bits: 6})
	idx2.Query([]uint32{1, 5}, 0.25)
	idx2.Query([]uint32{1, 5}, 0.25)
	idx2.Query([]uint32{1, 5}, 0.25)
	if h, _ := idx2.CacheStats(); h != 1 {
		t.Fatalf("identical region should hit on the third touch, hits=%d", h)
	}
}

// TestCacheDisabled verifies CacheSize < 0 turns the cache off.
func TestCacheDisabled(t *testing.T) {
	idx := MustIndex(Config{Dims: 2, Bits: 6, CacheSize: -1})
	if idx.cache != nil {
		t.Fatal("negative CacheSize must disable the cache")
	}
	idx.Query([]uint32{1, 2}, 0.25)
	if h, m := idx.CacheStats(); h != 0 || m != 0 {
		t.Fatalf("disabled cache reported hits=%d misses=%d", h, m)
	}
}

// TestCacheEvictionBound fills the cache well past its configured size
// and checks the live entry count respects the bound.
func TestCacheEvictionBound(t *testing.T) {
	idx := MustIndex(Config{Dims: 2, Bits: 8, CacheSize: 32})
	rng := rand.New(rand.NewSource(17))
	// Two passes per query so each shape clears the admission filter and
	// actually builds an entry.
	qs := randomPoints(rng, 500, 2, 8)
	for pass := 0; pass < 2; pass++ {
		for _, q := range qs {
			idx.Query(q, 0.25)
		}
	}
	if n := idx.cache.len(); n > 32 {
		t.Fatalf("cache holds %d entries, bound is 32", n)
	}
	// And it still answers correctly after heavy eviction.
	oracle := NewLinear()
	pts := randomPoints(rng, 100, 2, 8)
	for i, p := range pts {
		idx.Insert(p, uint64(i))
		oracle.Insert(p, uint64(i))
	}
	for _, q := range randomPoints(rng, 100, 2, 8) {
		_, ok := idx.QueryDominating(q)
		_, want := oracle.QueryDominating(q)
		if ok != want {
			t.Fatalf("post-eviction q=%v: got %v want %v", q, ok, want)
		}
	}
}

// TestCacheOverflowFallback drives a missing query whose enumeration
// prefix exceeds the per-entry bound: the recording search must answer
// exactly like an uncached index and publish only the negative entry,
// which repeats then answer through — uncached, but without another
// recording attempt. The indexes stay empty so the search runs the
// whole region-determined prefix instead of stopping at a hit.
func TestCacheOverflowFallback(t *testing.T) {
	const d, k = 3, 8
	q := []uint32{1, 1, 1}
	region := geom.QueryRegion(q, k)
	partition, err := cubes.Decompose(region.Rect(), k)
	if err != nil {
		t.Fatal(err)
	}
	if len(partition) <= cacheBuildMaxCubes {
		t.Skipf("partition has only %d cubes, need > %d to overflow", len(partition), cacheBuildMaxCubes)
	}
	cfg := Config{Dims: d, Bits: k, Seed: 5}
	cached := MustIndex(cfg)
	plainCfg := cfg
	plainCfg.CacheSize = -1
	plain := MustIndex(plainCfg)
	// Touch 1 registers the shape, touch 2 records (and overflows into
	// the negative entry), touch 3 hits the negative entry. Every touch
	// must agree with the uncached index bit for bit.
	for touch := 1; touch <= 3; touch++ {
		id1, ok1, st1, err1 := cached.Query(q, 0.01)
		id2, ok2, st2, err2 := plain.Query(q, 0.01)
		if err1 != nil || err2 != nil {
			t.Fatalf("touch %d errors: %v %v", touch, err1, err2)
		}
		if id1 != id2 || ok1 != ok2 || !reflect.DeepEqual(st1, st2) {
			t.Fatalf("touch %d diverged:\ncached:   (%d,%v) %+v\nuncached: (%d,%v) %+v", touch, id1, ok1, st1, id2, ok2, st2)
		}
		wantLen := 1
		if touch == 1 {
			wantLen = 0 // admission filter only; nothing published yet
		}
		if n := cached.cache.len(); n != wantLen {
			t.Fatalf("touch %d: %d live entries, want %d (the negative entry only)", touch, n, wantLen)
		}
	}
	hits, misses := cached.CacheStats()
	if hits != 1 || misses != 2 {
		t.Fatalf("want 1 hit (the negative-entry repeat) and 2 misses (register, build), have %d/%d", hits, misses)
	}
}

// TestCacheShardedConcurrent exercises the shared cache from concurrent
// queriers on a ShardedIndex (meaningful under -race) and checks every
// answer against the Linear oracle.
func TestCacheShardedConcurrent(t *testing.T) {
	cfg := Config{Dims: 2, Bits: 6, Seed: 11}
	x, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewLinear()
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 400, 2, 6)
	for i, p := range pts {
		x.Insert(p, uint64(i))
		oracle.Insert(p, uint64(i))
	}
	queries := randomPoints(rng, 64, 2, 6)
	want := make([]bool, len(queries))
	for i, q := range queries {
		_, want[i] = oracle.QueryDominating(q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i, q := range queries {
					_, ok, _, qerr := x.Query(q, 0)
					if qerr != nil {
						t.Errorf("goroutine %d q=%v: %v", g, q, qerr)
						return
					}
					if ok != want[i] {
						t.Errorf("goroutine %d q=%v: got %v want %v", g, q, ok, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if h, _ := x.CacheStats(); h == 0 {
		t.Error("concurrent repeat workload produced no cache hits")
	}
}
