package dominance

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sfccover/internal/bits"
	"sfccover/internal/cubes"
	"sfccover/internal/geom"
	"sfccover/internal/obs"
	"sfccover/internal/sfc"
)

const (
	// DefaultCacheSize is the decomposition cache bound, in entries,
	// selected by Config.CacheSize == 0.
	DefaultCacheSize = 4096
	// cacheShardCount shards the cache map so concurrent queries on a
	// ShardedIndex do not serialize on one lock.
	cacheShardCount = 16
	// cacheBuildMaxCubes caps the cubes a single cache entry may hold: a
	// query whose decomposition prefix exceeds it is answered by the
	// uncached search instead of being cached. DefaultMaxCubes-sized
	// partitions would otherwise pin unbounded memory per entry.
	cacheBuildMaxCubes = 4096
)

// decompCache memoizes query decompositions: the probe-ordered key
// ranges (and the per-level bookkeeping the paper's Stats need) for a
// query region under a given ε-budget. Brokers re-screen identical
// rectangles every churn round, and a decomposition depends only on the
// region, the budget and the curve — never on the indexed points — so
// entries are immutable, need no invalidation, and a hit skips
// decomposition and run-merging entirely. Replaying an entry issues
// bit-identical probes (and produces bit-identical Stats) to the search
// that built it.
//
// Admission is two-touch: building an entry enumerates the query's full
// region-determined cube prefix without probing, which costs far more
// than the interleaved search when that search would stop at an early
// hit. A shape seen once is only noted; the build happens on its second
// occurrence. One-shot queries therefore pay a hash lookup, not a
// build, and recurring shapes amortize one build over every repeat.
type decompCache struct {
	shards      [cacheShardCount]cacheShardMap
	perShardCap int
	hits        atomic.Uint64
	misses      atomic.Uint64
}

type cacheShardMap struct {
	mu   sync.Mutex
	m    map[uint64]*cacheEntry
	seen map[uint64]struct{} // admission filter: shapes missed once
}

func newDecompCache(size int) *decompCache {
	if size == 0 {
		size = DefaultCacheSize
	}
	per := size / cacheShardCount
	if per < 1 {
		per = 1
	}
	c := &decompCache{perShardCap: per}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*cacheEntry)
		c.shards[i].seen = make(map[uint64]struct{})
	}
	return c
}

// cacheEntry is one memoized decomposition. All fields are immutable
// after publication; the slices are shared read-only into the Stats of
// every query that replays the entry.
type cacheEntry struct {
	// Key: the exact region side lengths plus the budget that shaped the
	// decomposition. ε is exact for fixed budgets and grid-quantized by
	// the adaptive policy before it reaches the cache.
	lens     []uint64
	eps      float64
	maxCubes int

	// Replay data. ranges is the probe order; for exhaustive entries it
	// holds the merged runs, for approximate ones one range per cube.
	ranges []sfc.KeyRange

	// tooBig marks a negative entry: the decomposition prefix outgrew
	// cacheBuildMaxCubes, so the region is memoized as "answer uncached"
	// and repeated queries skip the futile rebuild.
	tooBig bool

	// partial marks an entry recorded from a search that ended at a
	// probe hit: ranges holds only the enumerated prefix up to and
	// including the hit cube. Replaying it answers exactly like the
	// uncached search while the hit (or an earlier one) stands; if the
	// whole prefix misses, the caller reruns the full search.
	partial bool

	exhaustive bool
	nCubes     int // CubesGenerated of an exhaustive replay

	m        int         // truncation parameter of an approximate replay
	vols     []float64   // per-cube volumes, aligned with ranges
	marks    []levelMark // level-completion points, ascending cube count
	finalLen []uint64    // SearchedLen when every range misses (may be nil)
}

// levelMark records that after cubeCount cubes the enumeration had
// completed a level whose searched region is R(lens) (Lemma 3.4).
type levelMark struct {
	cubeCount int
	lens      []uint64
}

func (e *cacheEntry) matches(lens []uint64, eps float64, maxCubes int) bool {
	if e.eps != eps || e.maxCubes != maxCubes || len(e.lens) != len(lens) {
		return false
	}
	for i, l := range lens {
		if e.lens[i] != l {
			return false
		}
	}
	return true
}

// entryHash is FNV-1a over the region lens and the budget.
func entryHash(lens []uint64, eps float64, maxCubes int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, l := range lens {
		mix(l)
	}
	mix(math.Float64bits(eps))
	mix(uint64(maxCubes))
	return h
}

// get returns the entry for the key, or nil. Collisions on the 64-bit
// hash are resolved by full-key comparison and treated as misses.
func (c *decompCache) get(h uint64, lens []uint64, eps float64, maxCubes int) *cacheEntry {
	s := &c.shards[h&(cacheShardCount-1)]
	s.mu.Lock()
	e := s.m[h]
	s.mu.Unlock()
	if e != nil && e.matches(lens, eps, maxCubes) {
		return e
	}
	return nil
}

// put publishes an entry, evicting one arbitrary entry when the shard is
// full (map iteration order makes the victim effectively random).
func (c *decompCache) put(h uint64, e *cacheEntry) {
	s := &c.shards[h&(cacheShardCount-1)]
	s.mu.Lock()
	if _, exists := s.m[h]; !exists && len(s.m) >= c.perShardCap {
		for victim := range s.m {
			delete(s.m, victim)
			break
		}
	}
	s.m[h] = e
	s.mu.Unlock()
}

// admit decides whether a missed shape should be built now: the first
// miss only registers it in the bounded seen filter, the second admits
// it (and clears the registration, keeping the filter small).
func (c *decompCache) admit(h uint64) bool {
	s := &c.shards[h&(cacheShardCount-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.seen[h]; ok {
		delete(s.seen, h)
		return true
	}
	if len(s.seen) >= c.perShardCap {
		for victim := range s.seen {
			delete(s.seen, victim)
			break
		}
	}
	s.seen[h] = struct{}{}
	return false
}

// len reports the live entry count (for tests and stats).
func (c *decompCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// search answers one query through the cache: a hit replays the
// memoized probe order with zero allocations; a miss on a shape seen
// before runs the interleaved search while recording it into an entry,
// so the recording pass does exactly the uncached search's work (plus
// the appends) and issues bit-identical probe sequences. A first-time
// shape runs the plain uncached search and is only registered with the
// admission filter; shapes whose enumeration exceeds the per-entry
// bound publish a negative entry and keep answering uncached. Cache
// timing rides the query trace sample: untraced queries never read the
// clock here.
//
//sfc:hotpath
func (c *decompCache) search(curve sfc.Curve, k, maxCubes int, sc *queryScratch, probe probeFn, region geom.Extremal, eps float64, stats *Stats, tr *obs.QueryTrace) (uint64, bool, error) {
	h := entryHash(region.Len, eps, maxCubes)
	if e := c.get(h, region.Len, eps, maxCubes); e != nil {
		c.hits.Add(1)
		if e.tooBig {
			// Negative entry: this region's decomposition is memoized as
			// too large to cache, so go straight to the uncached search
			// without re-enumerating.
			if eps == 0 {
				return searchExhaustive(curve, k, maxCubes, sc, probe, region, stats, tr)
			}
			return searchApprox(curve, k, maxCubes, sc, probe, region, eps, stats, tr)
		}
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		id, ok := e.replay(probe, region.Volume(), stats)
		if tr != nil {
			tr.AddStage("cache_replay", time.Since(t0), stats.RunsProbed)
		}
		if e.partial && !ok {
			// The recorded prefix ended at a hit that has since
			// disappeared. Rerun the full search from clean Stats — the
			// answer and Stats must match the uncached index exactly —
			// and upgrade the entry with the fresh recording.
			aspect := stats.AspectRatio
			*stats = Stats{AspectRatio: aspect}
			id, ok, ne, err := searchApproxRecord(curve, k, maxCubes, sc, probe, region, eps, stats, tr)
			if err != nil {
				return 0, false, err
			}
			c.put(h, ne)
			return id, ok, nil
		}
		return id, ok, nil
	}
	c.misses.Add(1)
	if !c.admit(h) {
		// First sighting of this shape: answer with the uncached search
		// and only note the shape. The recording waits for a second
		// occurrence to prove the shape recurs.
		if eps == 0 {
			return searchExhaustive(curve, k, maxCubes, sc, probe, region, stats, tr)
		}
		return searchApprox(curve, k, maxCubes, sc, probe, region, eps, stats, tr)
	}
	if eps == 0 {
		// Exhaustive searches decompose the whole region before probing
		// either way, so build-then-replay costs what the uncached search
		// costs plus one copy.
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		e, cacheable, err := buildExhaustiveEntry(curve, k, maxCubes, sc, region)
		if err != nil {
			return 0, false, err
		}
		if tr != nil {
			tr.AddStage("cache_build", time.Since(t0), len(e.ranges))
		}
		if cacheable {
			c.put(h, e)
		}
		var pt time.Time
		if tr != nil {
			pt = time.Now()
		}
		id, ok := e.replay(probe, region.Volume(), stats)
		if tr != nil {
			tr.AddStage("probes", time.Since(pt), stats.RunsProbed)
		}
		return id, ok, nil
	}
	id, ok, e, err := searchApproxRecord(curve, k, maxCubes, sc, probe, region, eps, stats, tr)
	if err != nil {
		return 0, false, err
	}
	c.put(h, e)
	return id, ok, nil
}

// buildExhaustiveEntry runs the decomposition side of an exhaustive
// search — no probing — and packages the merged runs for replay. The
// returned entry is always usable for the current query; cacheable
// reports whether it stayed within the per-entry bound and may be
// published. A partition over maxCubes fails with cubes.ErrCubeLimit,
// as in searchExhaustive.
func buildExhaustiveEntry(curve sfc.Curve, k, maxCubes int, sc *queryScratch, region geom.Extremal) (*cacheEntry, bool, error) {
	e := &cacheEntry{
		lens:     append([]uint64(nil), region.Len...),
		eps:      0,
		maxCubes: maxCubes,
	}
	partition, err := sc.dec.Decompose(sc.rect(region), k, maxCubes)
	if err != nil {
		return nil, false, err
	}
	runs := sc.dec.Runs(curve, partition)
	e.exhaustive = true
	e.nCubes = len(partition)
	e.finalLen = e.lens
	cacheable := len(runs) <= cacheBuildMaxCubes
	if cacheable {
		e.ranges = append([]sfc.KeyRange(nil), runs...)
	} else {
		// Too large to publish: alias the scratch runs for this one
		// replay and discard the entry.
		e.ranges = runs
	}
	return e, cacheable, nil
}

// searchApproxRecord is searchApprox with recording: it runs the
// identical interleaved truncate-enumerate-probe loop — same probes,
// same stopping conditions, bit-identical Stats — while packaging the
// enumerated prefix into a cache entry. A search that ends at a probe
// hit yields a partial entry (the prefix up to and including the hit
// cube); one that stops at the cap, the volume target or the last level
// yields a complete entry; a prefix that outgrows cacheBuildMaxCubes
// yields a negative (tooBig) entry, and the search simply keeps going
// uncached. The returned entry is non-nil whenever err is nil.
//
//sfc:hotpath
func searchApproxRecord(curve sfc.Curve, k, maxCubes int, sc *queryScratch, probe probeFn, region geom.Extremal, eps float64, stats *Stats, tr *obs.QueryTrace) (uint64, bool, *cacheEntry, error) {
	fullVol := region.Volume()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	target, m, err := cubes.TruncateExtremal(region, eps)
	if err != nil {
		return 0, false, nil, err
	}
	e := &cacheEntry{
		lens:     append([]uint64(nil), region.Len...),
		eps:      eps,
		maxCubes: maxCubes,
		m:        m,
	}
	negative := func() *cacheEntry {
		return &cacheEntry{lens: e.lens, eps: eps, maxCubes: maxCubes, tooBig: true}
	}
	if tr != nil {
		tr.AddStage("truncate", time.Since(t0), m)
		pt := time.Now()
		defer func() { tr.AddStage("cache_build", time.Since(pt), stats.RunsProbed) }()
	}
	stats.M = m
	targetVol := (1 - eps) * fullVol

	var (
		foundID  uint64
		searched float64 // volume probed so far
		capped   bool
		overflow bool
	)
	for level := k; level >= 0; level-- {
		err := sc.enum.Visit(target, level, func(corner []uint32, side uint64) bool {
			stats.CubesGenerated++
			stats.RunsProbed++
			cubeVol := 1.0
			for range corner {
				cubeVol *= float64(side)
			}
			searched += cubeVol
			r := sfc.CubeRange(curve, corner, side)
			if !overflow {
				if len(e.ranges) >= cacheBuildMaxCubes {
					overflow = true
				} else {
					e.ranges = append(e.ranges, r)
					e.vols = append(e.vols, cubeVol)
				}
			}
			if id, ok := probe(r.Lo, r.Hi); ok {
				foundID = id
				stats.Found = true
				return false
			}
			if maxCubes > 0 && stats.CubesGenerated >= maxCubes {
				capped = true
				return false
			}
			return true
		})
		if err != nil {
			return 0, false, nil, err
		}
		stats.VolumeFraction = searched / fullVol
		if stats.Found {
			if overflow {
				return foundID, true, negative(), nil
			}
			e.partial = true
			return foundID, true, e, nil
		}
		if capped {
			if level < k {
				stats.SearchedLen = bits.SVec(target.Len, level+1)
			}
			if overflow {
				return 0, false, negative(), nil
			}
			e.finalLen = stats.SearchedLen
			return 0, false, e, nil
		}
		// Level complete: the searched prefix tiles R(S_level(ℓ'))
		// (Lemma 3.4). Stop at the boundary once the volume target is met.
		stats.SearchedLen = bits.SVec(target.Len, level)
		if !overflow {
			e.marks = append(e.marks, levelMark{cubeCount: len(e.ranges), lens: stats.SearchedLen})
		}
		if searched >= targetVol {
			if overflow {
				return 0, false, negative(), nil
			}
			e.finalLen = e.marks[len(e.marks)-1].lens
			return 0, false, e, nil
		}
	}
	// Ran through every level: the whole truncated region was searched.
	stats.SearchedLen = append([]uint64(nil), target.Len...)
	if overflow {
		return 0, false, negative(), nil
	}
	e.finalLen = stats.SearchedLen
	return 0, false, e, nil
}

// replay probes a memoized decomposition in order, reproducing exactly
// the Stats the interleaved search would report: cube and probe counts
// accumulate per range, the searched-volume fraction per cube, and
// SearchedLen advances at the recorded level-completion marks. The
// SearchedLen slices are shared from the entry — read-only by the Stats
// contract — so a hit allocates nothing.
//
//sfc:hotpath
func (e *cacheEntry) replay(probe probeFn, fullVol float64, stats *Stats) (uint64, bool) {
	if e.exhaustive {
		stats.CubesGenerated = e.nCubes
		stats.VolumeFraction = 1
		stats.SearchedLen = e.finalLen
		for _, r := range e.ranges {
			stats.RunsProbed++
			if id, ok := probe(r.Lo, r.Hi); ok {
				stats.Found = true
				return id, true
			}
		}
		return 0, false
	}
	stats.M = e.m
	searched := 0.0
	mark := 0
	for i, r := range e.ranges {
		for mark < len(e.marks) && e.marks[mark].cubeCount == i {
			stats.SearchedLen = e.marks[mark].lens
			mark++
		}
		stats.CubesGenerated++
		stats.RunsProbed++
		searched += e.vols[i]
		if id, ok := probe(r.Lo, r.Hi); ok {
			stats.Found = true
			stats.VolumeFraction = searched / fullVol
			return id, true
		}
	}
	stats.VolumeFraction = searched / fullVol
	stats.SearchedLen = e.finalLen
	return 0, false
}
