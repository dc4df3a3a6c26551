package dominance

import (
	"time"

	"sfccover/internal/bits"
	"sfccover/internal/geom"
	"sfccover/internal/obs"
	"sfccover/internal/sfc"
)

// probeSampleMask times one run probe in 8 within a traced query: a
// probe is a short ordered-structure search, so reading the clock
// around every one would meter the clock, not the probe. Combined with
// query-level trace sampling, the "run_probe" histogram holds a
// uniform sample of probe latencies — the distribution is unbiased,
// only the _count is scaled — and untraced queries pay nothing.
const probeSampleMask = 7

// SetObserver attaches a latency observer: run probes issued by traced
// queries are recorded (sampled) into the observer's "run_probe"
// histogram. Must be called before the index serves concurrent queries
// — the field is read without synchronization on the probe path.
func (x *Index) SetObserver(o *obs.Observer) { x.probeHist = o.Hist("run_probe") }

// SetObserver attaches a latency observer to the sharded index; see
// (*Index).SetObserver.
func (x *ShardedIndex) SetObserver(o *obs.Observer) { x.probeHist = o.Hist("run_probe") }

// Query answers a point dominance query at q. eps == 0 requests an
// exhaustive search (Problem 1); 0 < eps < 1 requests an ε-approximate
// search (Problem 2) that truncates the query region per Lemma 3.2 and
// probes cubes largest-first, stopping as soon as a point is found or
// the searched volume reaches (1−ε) of the query region.
func (x *Index) Query(q []uint32, eps float64) (uint64, bool, Stats, error) {
	return x.QueryTraced(q, eps, nil)
}

// QueryTraced is Query with an optional trace record: when tr is
// non-nil the search appends its stage timings (cache replay or build,
// decomposition or truncation, then the probe loop) to it. tr may be
// nil.
//
//sfc:hotpath
func (x *Index) QueryTraced(q []uint32, eps float64, tr *obs.QueryTrace) (uint64, bool, Stats, error) {
	if len(q) != x.cfg.Dims {
		return 0, false, Stats{}, errDims(len(q), x.cfg.Dims)
	}
	if eps < 0 || eps >= 1 {
		return 0, false, Stats{}, errEps(eps)
	}
	sc := &x.scratch
	sc.stats = Stats{}
	stats := &sc.stats
	region := sc.region(q, x.cfg.Bits)
	stats.AspectRatio = region.AspectRatio()
	maxCubes := x.cfg.MaxCubes
	if x.budget != nil {
		eps, maxCubes = x.budget.adapt(eps, maxCubes, x.cfg.Dims, region)
	}
	// Probe metering rides the trace sample: untraced queries — the vast
	// majority — run the raw probe with no wrapper, no counter and no
	// clock reads.
	probe := x.rawProbe
	if tr != nil {
		probe = sampledProbe(probe, x.probeHist)
	}
	id, ok, err := dispatchSearch(x.curve, x.cfg.Bits, maxCubes, x.cache, sc, probe, region, eps, stats, tr)
	if x.budget != nil && err == nil {
		x.budget.record(stats, eps)
	}
	return id, ok, sc.stats, err
}

// dispatchSearch routes one query to the cache when one is attached and
// to the uncached searches otherwise.
//
//sfc:hotpath
func dispatchSearch(curve sfc.Curve, k, maxCubes int, cache *decompCache, sc *queryScratch, probe probeFn, region geom.Extremal, eps float64, stats *Stats, tr *obs.QueryTrace) (uint64, bool, error) {
	if cache != nil {
		return cache.search(curve, k, maxCubes, sc, probe, region, eps, stats, tr)
	}
	if eps == 0 {
		return searchExhaustive(curve, k, maxCubes, sc, probe, region, stats, tr)
	}
	return searchApprox(curve, k, maxCubes, sc, probe, region, eps, stats, tr)
}

// QueryTraced is Query with an optional trace record: stage timings
// plus per-slice probe counts (tr.Slices) showing how the probe traffic
// spread over the key slices. tr may be nil. Traced and untraced
// queries probe through the same slice cursor; a traced one also counts
// its probes per slice and samples probe latency into the histogram.
//
//sfc:hotpath
func (x *ShardedIndex) QueryTraced(q []uint32, eps float64, tr *obs.QueryTrace) (uint64, bool, Stats, error) {
	if len(q) != x.cfg.Dims {
		return 0, false, Stats{}, errDims(len(q), x.cfg.Dims)
	}
	if eps < 0 || eps >= 1 {
		return 0, false, Stats{}, errEps(eps)
	}
	sc := x.scratchPool.Get().(*queryScratch)
	defer x.endQuery(sc)
	sc.stats = Stats{}
	stats := &sc.stats
	region := sc.region(q, x.cfg.Bits)
	stats.AspectRatio = region.AspectRatio()
	maxCubes := x.cfg.MaxCubes
	if x.budget != nil {
		eps, maxCubes = x.budget.adapt(eps, maxCubes, x.cfg.Dims, region)
	}
	sc.cursor.tr = tr
	probe := sc.cursor.probe
	if tr != nil {
		probe = sampledProbe(probe, x.probeHist)
	}
	id, ok, err := dispatchSearch(x.curve, x.cfg.Bits, maxCubes, x.cache, sc, probe, region, eps, stats, tr)
	if x.budget != nil && err == nil {
		x.budget.record(stats, eps)
	}
	return id, ok, sc.stats, err
}

// endQuery releases the query's held slice lock — deferred, so on every
// exit path, a panic included — and returns its scratch to the pool.
func (x *ShardedIndex) endQuery(sc *queryScratch) {
	sc.cursor.release()
	sc.cursor.tr = nil
	x.scratchPool.Put(sc)
}

// sampledProbe wraps a raw probe with 1-in-8 latency sampling; it
// returns the probe unchanged when no histogram is attached.
func sampledProbe(raw probeFn, hist *obs.Histogram) probeFn {
	if hist == nil {
		return raw
	}
	n := 0
	return func(lo, hi bits.Key) (uint64, bool) {
		n++
		if n&probeSampleMask == 1 {
			t0 := time.Now()
			id, ok := raw(lo, hi)
			hist.Observe(time.Since(t0))
			return id, ok
		}
		return raw(lo, hi)
	}
}

// CostOf copies a Stats into the dependency-free trace cost record.
func CostOf(s Stats) obs.QueryCost {
	return obs.QueryCost{
		M:              s.M,
		CubesGenerated: s.CubesGenerated,
		RunsProbed:     s.RunsProbed,
		VolumeFraction: s.VolumeFraction,
		AspectRatio:    s.AspectRatio,
		Found:          s.Found,
	}
}
