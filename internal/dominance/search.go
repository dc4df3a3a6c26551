package dominance

import (
	"time"

	"sfccover/internal/bits"
	"sfccover/internal/cubes"
	"sfccover/internal/geom"
	"sfccover/internal/obs"
	"sfccover/internal/sfc"
)

// probeFn answers one run probe: is there an indexed point with a curve
// key in [lo, hi], and if so, which? The single-array index answers with
// one ordered search; the sharded index routes the range to the key-slice
// shards it intersects. Each call is one unit of the paper's query cost
// per array actually probed.
type probeFn func(lo, hi bits.Key) (id uint64, ok bool)

// searchExhaustive decomposes the whole query region, merges the
// partition into maximal runs — the probe count is runs(R(ℓ)), the paper's
// exhaustive cost — and probes every run until a point turns up. A
// partition of more than maxCubes cubes (when positive) fails the query
// with cubes.ErrCubeLimit before any probe: an exhaustive answer cannot
// be cut short without becoming a silent miss. A non-nil tr collects
// stage timings: "decompose" covers the partition and run merge,
// "probes" the probe loop.
//
//sfc:hotpath
func searchExhaustive(curve sfc.Curve, k, maxCubes int, sc *queryScratch, probe probeFn, region geom.Extremal, stats *Stats, tr *obs.QueryTrace) (uint64, bool, error) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	partition, err := sc.dec.Decompose(sc.rect(region), k, maxCubes)
	if err != nil {
		return 0, false, err
	}
	runs := sc.dec.Runs(curve, partition)
	if tr != nil {
		tr.AddStage("decompose", time.Since(t0), len(partition))
		pt := time.Now()
		defer func() { tr.AddStage("probes", time.Since(pt), stats.RunsProbed) }()
	}
	stats.CubesGenerated = len(partition)
	stats.VolumeFraction = 1
	stats.SearchedLen = append([]uint64(nil), region.Len...)
	for _, r := range runs {
		stats.RunsProbed++
		if id, ok := probe(r.Lo, r.Hi); ok {
			stats.Found = true
			return id, true, nil
		}
	}
	return 0, false, nil
}

// searchApprox is the Section 5 algorithm: truncate the region per
// Lemma 3.2, then enumerate the greedy partition level by level (largest
// cubes first) with the Appendix-A algorithm, probing each cube's key
// range as it is produced. The search ends at the first hit, at the level
// boundary where the searched volume reaches (1−ε) of the query region, or
// at the maxCubes cap. A non-nil tr collects stage timings: "truncate"
// covers the Lemma 3.2 truncation, "enumerate_probes" the interleaved
// cube enumeration and probe loop.
//
//sfc:hotpath
func searchApprox(curve sfc.Curve, k, maxCubes int, sc *queryScratch, probe probeFn, region geom.Extremal, eps float64, stats *Stats, tr *obs.QueryTrace) (uint64, bool, error) {
	fullVol := region.Volume()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	target, m, err := cubes.TruncateExtremal(region, eps)
	if err != nil {
		return 0, false, err
	}
	if tr != nil {
		tr.AddStage("truncate", time.Since(t0), m)
		pt := time.Now()
		defer func() { tr.AddStage("enumerate_probes", time.Since(pt), stats.RunsProbed) }()
	}
	stats.M = m
	targetVol := (1 - eps) * fullVol

	var (
		foundID  uint64
		searched float64 // volume probed so far
		capped   bool
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
			return 0, false, err
		}
		stats.VolumeFraction = searched / fullVol
		if stats.Found {
			return foundID, true, nil
		}
		if capped {
			if level < k {
				stats.SearchedLen = bits.SVec(target.Len, level+1)
			}
			return 0, false, nil
		}
		// Level complete: the searched prefix tiles R(S_level(ℓ'))
		// (Lemma 3.4). Stop at the boundary once the volume target is met.
		stats.SearchedLen = bits.SVec(target.Len, level)
		if searched >= targetVol {
			return 0, false, nil
		}
	}
	// Ran through every level: the whole truncated region was searched.
	stats.SearchedLen = append([]uint64(nil), target.Len...)
	return 0, false, nil
}
