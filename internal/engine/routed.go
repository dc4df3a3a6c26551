package engine

import (
	"fmt"
	"sort"
	"sync"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/obs"
	"sfccover/internal/subscription"
)

// routed is the shared-decomposition plan of the SFC strategy: one
// logical index whose SFC arrays are partitioned by key range
// (dominance.ShardedIndex), plus a co-partitioned subscription store. A
// query decomposes once, outside any lock, and each cube probe takes
// only the brief read lock of the key slice it lands in — the "mostly
// lock-free" read path. Updates lock one store stripe and one
// index slice.
type routed struct {
	mode     core.Mode
	eps      float64
	maxCoord uint32
	idx      *dominance.ShardedIndex
	mirror   *dominance.ShardedIndex // non-nil iff TrackCovered
	stores   []routedStore
}

// routedStore is one store stripe, aligned with the index's key slices.
type routedStore struct {
	mu   sync.Mutex
	subs map[uint64]*subscription.Subscription // keyed by engine id
	next uint64                                // next local id, starting at 1
}

// newRouted builds the plan from the normalized detector template (whose
// MaxCubes already uses the dominance convention: 0 = unlimited).
func newRouted(det core.Config, shards int) (*routed, error) {
	schema := det.Schema
	dcfg := dominance.Config{
		Dims: schema.Dims(), Bits: schema.Bits(),
		Curve: det.Curve, Array: det.Array, Seed: det.Seed, MaxCubes: det.MaxCubes,
		CacheSize: det.DecompCacheSize, Adaptive: det.AdaptiveBudget,
	}
	idx, err := dominance.NewSharded(dcfg, shards)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	r := &routed{
		mode:     det.Mode,
		eps:      det.Epsilon,
		maxCoord: schema.MaxValue(),
		idx:      idx,
		stores:   make([]routedStore, shards),
	}
	if det.TrackCovered {
		mcfg := dcfg
		mcfg.Seed++
		if r.mirror, err = dominance.NewSharded(mcfg, shards); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	for i := range r.stores {
		r.stores[i].subs = make(map[uint64]*subscription.Subscription)
		r.stores[i].next = 1
	}
	return r, nil
}

// mirrorPoint reflects a transformed point through the universe's center:
// dominance among mirrored points is reverse covering.
func (r *routed) mirrorPoint(p []uint32) []uint32 {
	out := make([]uint32, len(p))
	for i, v := range p {
		out[i] = r.maxCoord - v
	}
	return out
}

func (r *routed) shardFor(p []uint32) int { return r.idx.ShardFor(p) }

// cacheStats sums the decomposition-cache counters across the primary
// and (when present) the mirror index.
func (r *routed) cacheStats() (hits, misses uint64) {
	hits, misses = r.idx.CacheStats()
	if r.mirror != nil {
		h, m := r.mirror.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

func (r *routed) length() int {
	n := 0
	for i := range r.stores {
		st := &r.stores[i]
		st.mu.Lock()
		n += len(st.subs)
		st.mu.Unlock()
	}
	return n
}

// shardSizes reports the INDEX slice occupancies, not the store stripe
// sizes: the index slices are what queries probe and what rebalancing
// moves, so they are the layout skew diagnostics must observe. (Store
// stripes are assigned at insert time and never migrate — an id encodes
// its stripe — so after a rebalance the two layouts diverge by design.)
func (r *routed) shardSizes() []int {
	return r.idx.ShardSizes()
}

// rebalance implements the engine's rebalancer capability: while the
// primary index's occupancy skew exceeds target, equalize the most
// imbalanced adjacent slice pair, spending at most maxMoves boundary
// moves across the primary and (when present) the mirror index. The
// mirror indexes reflected points, so its skew is independent and it is
// rebalanced against its own occupancy.
// skew reports the worst occupancy skew across the primary and (when
// present) the mirror index — the background trigger's signal, so a
// balanced primary cannot mask a hot mirror slice.
func (r *routed) skew() float64 {
	s := core.SkewOf(r.idx.ShardSizes())
	if r.mirror != nil {
		if m := core.SkewOf(r.mirror.ShardSizes()); m > s {
			s = m
		}
	}
	return s
}

func (r *routed) rebalance(target float64, maxMoves int) core.RebalanceResult {
	res := core.RebalanceResult{SkewBefore: r.skew()}
	budget := maxMoves
	rebalanceIndex(r.idx, target, &budget, &res)
	if r.mirror != nil {
		rebalanceIndex(r.mirror, target, &budget, &res)
	}
	// Like the trigger signal, the reported skews take the worst index:
	// a pass driven by a hot mirror must not read as a no-op.
	res.SkewAfter = r.skew()
	return res
}

// rebalanceIndex drives one index toward target skew, decrementing budget
// per boundary move and folding the moves into res.
func rebalanceIndex(idx *dominance.ShardedIndex, target float64, budget *int, res *core.RebalanceResult) {
	n := idx.NumShards()
	if n < 2 {
		return
	}
	for *budget > 0 {
		sizes := idx.ShardSizes()
		if core.SkewOf(sizes) <= target {
			return
		}
		// Rank adjacent pairs by imbalance and equalize the worst one
		// that can actually move; keys can pin a pair (a single hot key
		// cannot split), in which case the next-worst pair gets its turn.
		pairs := make([]int, n-1)
		for i := range pairs {
			pairs[i] = i
		}
		sort.Slice(pairs, func(a, b int) bool {
			return pairDiff(sizes, pairs[a]) > pairDiff(sizes, pairs[b])
		})
		moved := 0
		for _, i := range pairs {
			if pairDiff(sizes, i) <= 1 {
				break
			}
			if m := idx.EqualizePair(i); m > 0 {
				moved = m
				break
			}
		}
		if moved == 0 {
			return // as balanced as the key distribution allows
		}
		res.Moves++
		res.Migrated += moved
		*budget--
	}
}

func pairDiff(sizes []int, i int) int {
	d := sizes[i] - sizes[i+1]
	if d < 0 {
		return -d
	}
	return d
}

func (r *routed) insert(s *subscription.Subscription) (uint64, error) {
	p := s.Point()
	shard := r.idx.ShardFor(p)
	st := &r.stores[shard]
	st.mu.Lock()
	defer st.mu.Unlock()
	id := encodeID(len(r.stores), shard, st.next)
	st.next++
	st.subs[id] = s.Clone()
	r.idx.Insert(p, id)
	if r.mirror != nil {
		r.mirror.Insert(r.mirrorPoint(p), id)
	}
	return id, nil
}

// insertBatch groups the batch by destination key slice and bulk-loads
// each slice: the stripe mutex and the index slice lock are each taken
// once per shard group instead of once per item. Groups load in parallel
// through the supplied runner; the lock order within a group (stripe,
// then slice) matches insert's, so the paths cannot deadlock.
func (r *routed) insertBatch(subs []*subscription.Subscription, par func(n int, fn func(i int))) ([]uint64, []error) {
	ids := make([]uint64, len(subs))
	errs := make([]error, len(subs))
	points := make([][]uint32, len(subs))
	groups := make([][]int, len(r.stores))
	for i, s := range subs {
		points[i] = s.Point()
		shard := r.idx.ShardFor(points[i])
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
		ps := make([][]uint32, len(group))
		groupIDs := make([]uint64, len(group))
		st := &r.stores[shard]
		st.mu.Lock()
		for k, i := range group {
			id := encodeID(len(r.stores), shard, st.next)
			st.next++
			st.subs[id] = subs[i].Clone()
			ps[k] = points[i]
			groupIDs[k] = id
			ids[i] = id
		}
		r.idx.InsertBatch(ps, groupIDs)
		if r.mirror != nil {
			for k := range ps {
				ps[k] = r.mirrorPoint(ps[k])
			}
			r.mirror.InsertBatch(ps, groupIDs)
		}
		st.mu.Unlock()
	})
	return ids, errs
}

func (r *routed) remove(id uint64) error {
	shard, _ := decodeID(len(r.stores), id)
	st := &r.stores[shard]
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.subs[id]
	if !ok {
		return fmt.Errorf("engine: no subscription with id %d", id)
	}
	p := s.Point()
	if !r.idx.Delete(p, id) {
		return fmt.Errorf("engine: index out of sync for id %d", id)
	}
	if r.mirror != nil && !r.mirror.Delete(r.mirrorPoint(p), id) {
		return fmt.Errorf("engine: mirror index out of sync for id %d", id)
	}
	delete(st.subs, id)
	return nil
}

func (r *routed) subscription(id uint64) (*subscription.Subscription, bool) {
	shard, _ := decodeID(len(r.stores), id)
	st := &r.stores[shard]
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.subs[id]
	if !ok {
		return nil, false
	}
	return s.Clone(), true
}

// setObserver implements the backend observability hook: the sharded
// index (and its mirror) sample run-probe latencies into "run_probe".
func (r *routed) setObserver(o *obs.Observer) {
	r.idx.SetObserver(o)
	if r.mirror != nil {
		r.mirror.SetObserver(o)
	}
}

// findCover runs one shared-decomposition search; the returned ids are
// engine ids because that is what the index stores. A non-nil trace
// collects the decomposition/probe stage timings and per-slice probe
// counts inside the sharded index.
func (r *routed) findCover(s *subscription.Subscription, tr *obs.QueryTrace) (QueryResult, int) {
	switch r.mode {
	case core.ModeOff:
		return QueryResult{}, 0
	case core.ModeExact:
		return r.query(r.idx, s.Point(), 0, tr)
	default: // ModeApprox
		return r.query(r.idx, s.Point(), r.eps, tr)
	}
}

func (r *routed) findCovered(s *subscription.Subscription, tr *obs.QueryTrace) (QueryResult, int) {
	switch r.mode {
	case core.ModeOff:
		return QueryResult{}, 0
	case core.ModeExact:
		// Direct scan, like a Detector's exact FindCovered: always
		// available, O(n).
		probed := 0
		for i := range r.stores {
			st := &r.stores[i]
			st.mu.Lock()
			for id, cand := range st.subs {
				if s.Covers(cand) {
					st.mu.Unlock()
					return QueryResult{Covered: true, CoveredBy: id}, probed + 1
				}
			}
			st.mu.Unlock()
			probed++
		}
		return QueryResult{}, probed
	}
	// ModeApprox.
	if r.mirror == nil {
		return QueryResult{Err: fmt.Errorf("engine: approximate FindCovered requires Config.Detector.TrackCovered")}, 0
	}
	return r.query(r.mirror, r.mirrorPoint(s.Point()), r.eps, tr)
}

func (r *routed) query(idx *dominance.ShardedIndex, p []uint32, eps float64, tr *obs.QueryTrace) (QueryResult, int) {
	id, found, stats, err := idx.QueryTraced(p, eps, tr)
	if err != nil {
		return QueryResult{Err: err}, 0
	}
	return QueryResult{Covered: found, CoveredBy: id, Stats: stats}, 1
}
