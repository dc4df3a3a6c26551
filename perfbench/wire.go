package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sfccover/internal/engine"
	"sfccover/internal/sfcd"
	"sfccover/internal/subscription"
)

// query-wire: nproc closed-loop callers share one pipelined sfcd.Client
// and issue Client.Query against an in-process daemon on loopback TCP.
// The queries are planted children drawn Zipf(1.1) over a set of shapes
// that fits the decomposition cache, so after warm-up the search is a
// cache replay and the request mostly exercises client, framing, codec
// and dispatch.

const (
	wireMaxCubes = 1000
	wireZipfS    = 1.1
	// wireWarmTouches: the cache admits a shape on its second miss and
	// serves it from the third touch on.
	wireWarmTouches = 3
	// wireSeqLen is the length of the precomputed query sequence; longer
	// runs wrap around it.
	wireSeqLen = 1 << 20
)

// wireSystem is query-wire's set-up system: engine, daemon and client.
type wireSystem struct {
	eng   *engine.Engine
	srv   *sfcd.Server
	cl    *sfcd.Client
	owner map[uint64]int
}

func (w *wireSystem) close() {
	w.cl.Close()
	w.srv.Close()
	w.eng.Close()
}

// setupWire boots the daemon over a preloaded engine, dials the client
// and warms the decomposition cache with every query shape.
func setupWire(schema *subscription.Schema, parents, queries []*subscription.Subscription, callers int) (*wireSystem, error) {
	eng, err := newEngine(schema, wireMaxCubes)
	if err != nil {
		return nil, err
	}
	owner, err := preload(eng, parents)
	if err != nil {
		eng.Close()
		return nil, err
	}
	srv := sfcd.NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	cl, err := sfcd.DialContext(context.Background(), sfcd.DialConfig{Addr: addr.String(), Schema: schema})
	if err != nil {
		srv.Close()
		eng.Close()
		return nil, err
	}
	w := &wireSystem{eng: eng, srv: srv, cl: cl, owner: owner}
	warm := make([]int32, 0, wireWarmTouches*len(queries))
	for t := 0; t < wireWarmTouches; t++ {
		for i := range queries {
			warm = append(warm, int32(i))
		}
	}
	ph := w.drive(queries, warm, callers, 0, int64(len(warm)), nil)
	if ph.failed > 0 {
		w.close()
		return nil, fmt.Errorf("cache warm-up: %d queries failed: %w", ph.failed, ph.err)
	}
	return w, nil
}

// drive runs callers closed loops over the query sequence seq until dur
// has passed (dur > 0) or limit ops were issued (limit > 0). Op i issues
// queries[seq[i mod len(seq)]]. A non-nil tracer records an "op" span
// and a child "sfcd.Client.Query" span per op.
func (w *wireSystem) drive(queries []*subscription.Subscription, seq []int32, callers int, dur time.Duration, limit int64, tr *tracer) *phase {
	var next atomic.Int64
	logs := make([]phase, callers)
	start := time.Now()
	deadline := start.Add(dur)
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(lg *phase) {
			defer wg.Done()
			var rec *recorder
			if tr != nil {
				rec = tr.recorder(2 * int(limit) / callers)
			}
			now := start
			for {
				if dur > 0 && !now.Before(deadline) {
					return
				}
				i := next.Add(1) - 1
				if limit > 0 && i >= limit {
					return
				}
				q := seq[i%int64(len(seq))]
				root := rec.begin("op", i, -1)
				h := rec.begin("sfcd.Client.Query", i, root)
				t0 := time.Now()
				covered, id, err := w.cl.Query(ctx, queries[q])
				now = time.Now()
				rec.end(h)
				rec.end(root)
				if err != nil {
					lg.failed++
					if lg.err == nil {
						lg.err = err
					}
					continue
				}
				lg.sample(t0, now, 1)
				lg.answers = append(lg.answers, answer{query: q, covered: covered, id: id})
			}
		}(&logs[c])
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start)}
	for i := range logs {
		out.merge(&logs[i])
	}
	return out
}

// zipfSequence draws n query indexes Zipf(s) over [0, shapes).
func zipfSequence(seed int64, shapes, n int, s float64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(shapes-1))
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(z.Uint64())
	}
	return seq
}

func runQueryWire(cfg *config) (*outcome, error) {
	schema := newSchema()
	parents, children, err := coverPopulation(schema, cfg.size.pairs, cfg.seed)
	if err != nil {
		return nil, err
	}
	queries := children[:cfg.size.shapes]
	seq := zipfSequence(cfg.seed+1, len(queries), wireSeqLen, wireZipfS)
	callers := runtime.NumCPU()
	cfg.logf("query-wire: %d planted parents preloaded, %d query shapes drawn Zipf(%g), %d closed-loop callers on one pipelined client, eps=%g, maxcubes=%d, %d prefix shards",
		len(parents), len(queries), wireZipfS, callers, epsilon, wireMaxCubes, shards)

	reps := cfg.size.setupReps
	if cfg.trace {
		reps = 1
	}
	sys, setupS, err := setupMedian(reps, func() (*wireSystem, error) {
		return setupWire(schema, parents, queries, callers)
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()

	// The reference: the in-process engine's answer to every query shape
	// over the same population.
	want := make([]answer, len(queries))
	for i, q := range queries {
		id, found, _, err := sys.eng.FindCover(q)
		if err != nil {
			return nil, fmt.Errorf("reference query %d: %w", i, err)
		}
		want[i] = answer{query: int32(i), covered: found, id: id}
	}
	heapMB := liveHeapMB()

	oc := &outcome{}
	check := func(ph *phase) {
		oc.attempted += ph.ops + ph.failed
		oc.failed += ph.failed
		if oc.checkErr == nil {
			oc.checkErr = checkWireAnswers(ph.answers, want, queries, parents, sys.owner)
		}
	}
	if !cfg.trace {
		ph := sys.drive(queries, seq, callers, cfg.seconds, 0, nil)
		check(ph)
		oc.e2e = map[string]float64{"setup_s": setupS, "heap_mb": heapMB}
		latencyE2E(oc.e2e, ph)
		covered := coveredCount(ph.answers)
		oc.e2e["hit_frac"] = ratio(float64(covered), float64(ph.ops))
		cfg.logf("latency samples=%d (one per round trip)", len(ph.latNS))
		return oc, nil
	}

	// Traced run: a fixed number of ops untraced, then the same ops with
	// spans on. The counters are read around the traced phase (fixed op
	// count, so they repeat exactly for a seed), the process counters
	// around the untraced one. The stage sample runs on the warm cache,
	// the regime of the measured phases.
	l := zeroLayers()
	l["dominance.decompose_us"], l["dominance.probe_us"] = stageTimes(sys.eng, queries[:min(cfg.size.traceSample, len(queries))])
	limit := int64(cfg.size.wireTraceOps)
	tr := newTracer()
	p0 := takeProcSnap()
	uph := sys.drive(queries, seq, callers, 0, limit, nil)
	p1 := takeProcSnap()
	reg0, tot0, st0 := sys.eng.Observer().Registry().Snapshot(), sys.eng.Totals(), sys.eng.Stats()
	tph := sys.drive(queries, seq, callers, 0, limit, tr)
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
	ops := float64(tph.ops)
	rtt := spans["sfcd.Client.Query"]
	server := histDelta(reg0, reg1, "query")
	l["sfcd.client_rtt_p50_us"] = rtt.P50US
	l["sfcd.server_op_us"] = meanUS(server)
	l["sfcd.wire_self_us"] = rtt.MeanUS - meanUS(server)
	l["sfcd.rpcs_per_op"] = ratio(float64(histDelta(reg0, reg1, serverOps...).Count), ops)
	l["engine.query_us"] = meanUS(histDelta(reg0, reg1, "engine_query"))
	engineCounters(l, tot0, tot1, st0.DecompCacheHits, st1.DecompCacheHits, st0.DecompCacheMisses, st1.DecompCacheMisses)
	procMetrics(l, p0, p1, int(uph.ops))
	overheadLayers(l, tph.throughput(), uph.throughput())
	reportOverhead(cfg, tph, uph)
	oc.layers = l
	return oc, nil
}

func coveredCount(as []answer) int64 {
	var n int64
	for _, a := range as {
		if a.covered {
			n++
		}
	}
	return n
}

// engineCounters fills the dominance cost and cache metrics from engine
// counter deltas.
func engineCounters(l map[string]float64, t0, t1 engine.Totals, hits0, hits1, miss0, miss1 uint64) {
	q := float64(t1.Queries - t0.Queries)
	l["dominance.cubes_per_query"] = ratio(float64(t1.CubesGenerated-t0.CubesGenerated), q)
	l["dominance.runs_probed_per_query"] = ratio(float64(t1.RunsProbed-t0.RunsProbed), q)
	h, m := float64(hits1-hits0), float64(miss1-miss0)
	l["dominance.cache_hit_frac"] = ratio(h, h+m)
}

// reportOverhead prints a traced run's end-to-end figures next to the
// untraced phase's.
func reportOverhead(cfg *config, traced, untraced *phase) {
	for _, p := range []struct {
		name string
		ph   *phase
	}{{"traced", traced}, {"untraced", untraced}} {
		us := nsToUS(p.ph.latNS)
		cfg.logf("e2e %-8s ops=%d throughput_ops_s=%.6g latency_p50_us=%.6g latency_p90_us=%.6g",
			p.name, p.ph.ops, p.ph.throughput(), quantile(us, 0.5), quantile(us, 0.9))
	}
}
