package engine

import (
	"fmt"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/obs"
	"sfccover/internal/subscription"
)

// fanout is the independent-shards plan: N complete core.Detectors, each
// owning a slice of the subscription set. Updates touch one shard; a
// covering query fans out across the shards — home shard first, stopping
// at the first hit — because a cover can live anywhere. Used by the
// linear and KD-tree strategies, which have no shared decomposition to
// exploit; hashPoint places subscriptions.
type fanout struct {
	dets []*core.Detector
	// shardHist, when an observer is attached, times the per-shard
	// searches of traced queries; riding the trace sample keeps the
	// untraced hot path free of clock reads.
	shardHist *obs.Histogram
}

// setObserver implements the backend observability hook: traced
// queries time per-shard searches into "shard_search", and each
// detector wires its own index so run probes feed "run_probe".
func (f *fanout) setObserver(o *obs.Observer) {
	f.shardHist = o.Hist("shard_search")
	for _, d := range f.dets {
		d.SetObserver(o)
	}
}

// newFanout builds the plan from the validated detector template.
func newFanout(det core.Config, shards int) (*fanout, error) {
	f := &fanout{dets: make([]*core.Detector, shards)}
	for i := range f.dets {
		sc := det
		// Spread seeds so shards build independent randomized structures;
		// stride 2 leaves room for each detector's mirror index (Seed+1).
		sc.Seed = det.Seed + int64(i)*2
		d, err := core.New(sc)
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", i, err)
		}
		f.dets[i] = d
	}
	return f, nil
}

func (f *fanout) shardFor(p []uint32) int { return hashPoint(p, len(f.dets)) }

// cacheStats sums the decomposition-cache counters across the shard
// detectors.
func (f *fanout) cacheStats() (hits, misses uint64) {
	for _, d := range f.dets {
		h, m := d.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

func (f *fanout) length() int {
	n := 0
	for _, d := range f.dets {
		n += d.Len()
	}
	return n
}

func (f *fanout) shardSizes() []int {
	sizes := make([]int, len(f.dets))
	for i, d := range f.dets {
		sizes[i] = d.Len()
	}
	return sizes
}

func (f *fanout) insert(s *subscription.Subscription) (uint64, error) {
	shard := f.shardFor(s.Point())
	local, err := f.dets[shard].Insert(s)
	if err != nil {
		return 0, err
	}
	return encodeID(len(f.dets), shard, local), nil
}

// insertBatch groups the batch by home shard and bulk-loads each shard's
// group through Detector.InsertBatch — one detector lock acquisition per
// shard instead of one per item. Shard groups load in parallel through
// the supplied runner.
func (f *fanout) insertBatch(subs []*subscription.Subscription, par func(n int, fn func(i int))) ([]uint64, []error) {
	ids := make([]uint64, len(subs))
	errs := make([]error, len(subs))
	groups := make([][]int, len(f.dets))
	for i, s := range subs {
		shard := f.shardFor(s.Point())
		groups[shard] = append(groups[shard], i)
	}
	active := make([]int, 0, len(groups))
	for shard, g := range groups {
		if len(g) > 0 {
			active = append(active, shard)
		}
	}
	par(len(active), func(gi int) {
		shard := active[gi]
		group := groups[shard]
		batch := make([]*subscription.Subscription, len(group))
		for k, i := range group {
			batch[k] = subs[i]
		}
		local, err := f.dets[shard].InsertBatch(batch)
		for k, i := range group {
			if err != nil {
				errs[i] = err
				continue
			}
			ids[i] = encodeID(len(f.dets), shard, local[k])
		}
	})
	return ids, errs
}

func (f *fanout) remove(id uint64) error {
	shard, local := decodeID(len(f.dets), id)
	return f.dets[shard].Remove(local)
}

func (f *fanout) subscription(id uint64) (*subscription.Subscription, bool) {
	shard, local := decodeID(len(f.dets), id)
	return f.dets[shard].Subscription(local)
}

// findCover fans the query out: home shard first, then the rest, stopping
// at the first hit. With a trace attached, the aggregate shard-search
// time lands in one "shard_search" stage (Count = shards probed).
func (f *fanout) findCover(s *subscription.Subscription, tr *obs.QueryTrace) (QueryResult, int) {
	home := f.shardFor(s.Point())
	var res QueryResult
	probed := 0
	var spent time.Duration
	for i := 0; i < len(f.dets); i++ {
		shard := (home + i) % len(f.dets)
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		id, found, stats, err := f.dets[shard].FindCoverTraced(s, tr)
		if tr != nil {
			d := time.Since(t0)
			f.shardHist.Observe(d)
			spent += d
		}
		if err != nil {
			return QueryResult{Err: err}, probed
		}
		probed++
		tr.TouchSlice(shard)
		mergeStats(&res.Stats, stats, i == 0)
		if found {
			res.Covered = true
			res.CoveredBy = encodeID(len(f.dets), shard, id)
			break
		}
	}
	tr.AddStage("shard_search", spent, probed)
	return res, probed
}

// findCovered fans the reverse query out over every shard.
func (f *fanout) findCovered(s *subscription.Subscription, tr *obs.QueryTrace) (QueryResult, int) {
	var res QueryResult
	probed := 0
	var spent time.Duration
	for shard, d := range f.dets {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		id, found, stats, err := d.FindCoveredTraced(s, tr)
		if tr != nil {
			dt := time.Since(t0)
			f.shardHist.Observe(dt)
			spent += dt
		}
		if err != nil {
			return QueryResult{Err: err}, probed
		}
		probed++
		tr.TouchSlice(shard)
		mergeStats(&res.Stats, stats, shard == 0)
		if found {
			res.Covered = true
			res.CoveredBy = encodeID(len(f.dets), shard, id)
			break
		}
	}
	tr.AddStage("shard_search", spent, probed)
	return res, probed
}
