package main

import (
	"fmt"
	"time"

	"sfccover/internal/engine"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// query-local: one closed-loop caller issues Engine.CoverQueryBatch in
// batches over distinct query shapes (planted children interleaved with
// uniform subscriptions), eight times more shapes than the
// decomposition cache holds. Decomposition, cube enumeration and
// SFC-array probes do nearly all the work; the wire is bypassed and the
// cache mostly misses.

const (
	localMaxCubes = wireMaxCubes
	// localWarmBatches spin up the worker pool and scratch buffers
	// before timing.
	localWarmBatches = 16
)

// localSystem is query-local's set-up system: the preloaded engine.
type localSystem struct {
	eng   *engine.Engine
	owner map[uint64]int
}

func (s *localSystem) close() { s.eng.Close() }

// drive issues batches of the query sequence, starting at the first
// batch, until dur has passed (dur > 0) or limit queries were issued
// (limit > 0). A non-nil tracer records an "op" span and a child
// "engine.CoverQueryBatch" span per batch.
func (s *localSystem) drive(queries []*subscription.Subscription, batch int, dur time.Duration, limit int64, tr *tracer) *phase {
	ph := &phase{}
	rec := tr.recorder(2 * int(limit) / batch)
	start := time.Now()
	deadline := start.Add(dur)
	now := start
	for b := int64(0); ; b++ {
		if dur > 0 && !now.Before(deadline) {
			break
		}
		if limit > 0 && b*int64(batch) >= limit {
			break
		}
		lo := int(b*int64(batch)) % len(queries)
		items := queries[lo : lo+batch]
		root := rec.begin("op", b, -1)
		h := rec.begin("engine.CoverQueryBatch", b, root)
		t0 := time.Now()
		res := s.eng.CoverQueryBatch(items)
		now = time.Now()
		rec.end(h)
		rec.end(root)
		ok := 0
		for j, r := range res {
			if r.Err != nil {
				ph.failed++
				if ph.err == nil {
					ph.err = r.Err
				}
				continue
			}
			ok++
			ph.answers = append(ph.answers, answer{query: int32(lo + j), covered: r.Covered, id: r.CoveredBy})
		}
		ph.sample(t0, now, ok)
	}
	ph.elapsed = time.Since(start)
	return ph
}

func runQueryLocal(cfg *config) (*outcome, error) {
	schema := newSchema()
	parents, children, err := coverPopulation(schema, cfg.size.pairs, cfg.seed)
	if err != nil {
		return nil, err
	}
	uniform, err := workload.Subscriptions(workload.SubSpec{Schema: schema, N: cfg.size.uniform, WidthFrac: uniformWide, Seed: cfg.seed + 2})
	if err != nil {
		return nil, err
	}
	var queries []*subscription.Subscription
	for i := 0; i < max(len(children), len(uniform)); i++ {
		if i < len(children) {
			queries = append(queries, children[i])
		}
		if i < len(uniform) {
			queries = append(queries, uniform[i])
		}
	}
	batch := cfg.size.batch
	if len(queries)%batch != 0 {
		return nil, fmt.Errorf("%d queries do not split into batches of %d", len(queries), batch)
	}
	cfg.logf("query-local: %d planted parents preloaded, %d distinct queries (children interleaved with uniform width %g), one closed-loop caller, batches of %d, eps=%g, maxcubes=%d, %d prefix shards",
		len(parents), len(queries), uniformWide, batch, epsilon, localMaxCubes, shards)

	reps := cfg.size.setupReps
	if cfg.trace {
		reps = 1
	}
	sys, setupS, err := setupMedian(reps, func() (*localSystem, error) {
		eng, err := newEngine(schema, localMaxCubes)
		if err != nil {
			return nil, err
		}
		owner, err := preload(eng, parents)
		if err != nil {
			eng.Close()
			return nil, err
		}
		s := &localSystem{eng: eng, owner: owner}
		if ph := s.drive(queries, batch, 0, int64(localWarmBatches*batch), nil); ph.failed > 0 {
			s.close()
			return nil, fmt.Errorf("warm-up: %d queries failed: %w", ph.failed, ph.err)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()
	heapMB := liveHeapMB()

	oc := &outcome{}
	check := func(ph *phase) {
		oc.attempted += ph.ops + ph.failed
		oc.failed += ph.failed
		if oc.checkErr == nil {
			oc.checkErr = checkLocalAnswers(ph.answers, queries, parents, sys.owner)
		}
	}
	if !cfg.trace {
		ph := sys.drive(queries, batch, cfg.seconds, 0, nil)
		check(ph)
		oc.e2e = map[string]float64{"setup_s": setupS, "heap_mb": heapMB}
		latencyE2E(oc.e2e, ph)
		covered := coveredCount(ph.answers)
		oc.e2e["hit_frac"] = ratio(float64(covered), float64(ph.ops))
		cfg.logf("latency samples=%d (one per %d-query batch call)", len(ph.latNS), batch)
		return oc, nil
	}

	// As on query-wire: untraced phase, then the same queries traced. The
	// stage sample is the end of the sequence, which warm-up has not
	// touched: a first sighting takes the uncached search, the regime of
	// most queries here.
	l := zeroLayers()
	l["dominance.decompose_us"], l["dominance.probe_us"] = stageTimes(sys.eng, queries[len(queries)-min(cfg.size.traceSample, len(queries)):])
	limit := int64(cfg.size.localTraceOps)
	tr := newTracer()
	p0 := takeProcSnap()
	uph := sys.drive(queries, batch, 0, limit, nil)
	p1 := takeProcSnap()
	reg0, tot0, st0 := sys.eng.Observer().Registry().Snapshot(), sys.eng.Totals(), sys.eng.Stats()
	tph := sys.drive(queries, batch, 0, limit, tr)
	reg1, tot1, st1 := sys.eng.Observer().Registry().Snapshot(), sys.eng.Totals(), sys.eng.Stats()
	check(uph)
	check(tph)

	if l["subscription.encode_ns"], l["subscription.decode_ns"], err = codecReplay(tr.recorder(2), queries, 20*time.Millisecond); err != nil {
		return nil, err
	}
	spans, err := finishTrace(cfg, tr)
	if err != nil {
		return nil, err
	}
	l["engine.batch_p50_us"] = spans["engine.CoverQueryBatch"].P50US
	l["engine.query_us"] = meanUS(histDelta(reg0, reg1, "engine_query"))
	engineCounters(l, tot0, tot1, st0.DecompCacheHits, st1.DecompCacheHits, st0.DecompCacheMisses, st1.DecompCacheMisses)
	procMetrics(l, p0, p1, int(uph.ops))
	overheadLayers(l, tph.throughput(), uph.throughput())
	reportOverhead(cfg, tph, uph)
	oc.layers = l
	return oc, nil
}
