package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/obs"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// Settings every workload shares: the paper's ε, and the engine plan
// the daemon runs by default (curve-prefix partitioning, 4 shards).
const (
	epsilon     = 0.3
	shards      = 4
	attrBits    = 10
	engineSeed  = 1
	coverSlack  = 0.2
	uniformWide = 0.3
	churnWide   = 0.4
)

// sizes are the workload dimensions. fullSizes is what the command runs;
// the tests shrink them.
type sizes struct {
	// pairs is the planted cover population of the query workloads.
	pairs int
	// shapes is the number of distinct queries on query-wire.
	shapes int
	// uniform is the number of uniform queries query-local interleaves
	// with the planted children.
	uniform int
	// batch is query-local's CoverQueryBatch size.
	batch int
	// churnSubs and churnEvents are overlay-churn's input pools; window
	// is its live-subscription bound.
	churnSubs, churnEvents, window int
	// setupReps and churnSetupReps are how many times an untraced run of
	// a query workload and of overlay-churn sets up; setup_s is the
	// median.
	setupReps, churnSetupReps int
	// wireTraceOps, localTraceOps and churnTraceOps are the fixed op
	// counts of the traced phases (fixed so per-op counts repeat).
	wireTraceOps, localTraceOps, churnTraceOps int
	// traceSample is how many of the workload's queries Engine.TraceCover
	// replays for the stage times.
	traceSample int
}

func fullSizes() sizes {
	return sizes{
		pairs:          16384,
		shapes:         1024,
		uniform:        16384,
		batch:          64,
		churnSubs:      4096,
		churnEvents:    4096,
		window:         256,
		setupReps:      7,
		churnSetupReps: 3,
		wireTraceOps:   60000,
		localTraceOps:  32768,
		churnTraceOps:  400,
		traceSample:    256,
	}
}

// newSchema is the two-attribute, 10-bit schema of every workload.
func newSchema() *subscription.Schema {
	return subscription.MustSchema(attrBits, "x", "y")
}

// coverPopulation generates the planted cover pairs of the query
// workloads.
func coverPopulation(schema *subscription.Schema, n int, seed int64) (parents, children []*subscription.Subscription, err error) {
	pairs, err := workload.Covers(workload.CoverSpec{Schema: schema, N: n, SlackFrac: coverSlack, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range pairs {
		parents = append(parents, p.Parent)
		children = append(children, p.Child)
	}
	return parents, children, nil
}

// newEngine builds the workloads' engine: ε-approximate, curve-prefix
// partitioned over 4 shards, one worker per CPU.
func newEngine(schema *subscription.Schema, maxCubes int) (*engine.Engine, error) {
	return engine.New(engine.Config{
		Detector: core.Config{
			Schema:   schema,
			Mode:     core.ModeApprox,
			Epsilon:  epsilon,
			MaxCubes: maxCubes,
			Seed:     engineSeed,
		},
		Shards:    shards,
		Partition: engine.PartitionPrefix,
		Workers:   runtime.NumCPU(),
	})
}

// preload bulk-inserts the population and returns each engine id's
// index into subs.
func preload(eng *engine.Engine, subs []*subscription.Subscription) (map[uint64]int, error) {
	ids, err := eng.InsertBatch(subs)
	if err != nil {
		return nil, fmt.Errorf("preloading: %w", err)
	}
	owner := make(map[uint64]int, len(ids))
	for i, id := range ids {
		owner[id] = i
	}
	return owner, nil
}

// closer is a set-up system the benchmark tears down.
type closer interface{ close() }

// setupMedian builds a system reps times, closing all but the last, and
// returns the last one with the median build time in seconds. Each build
// starts after a forced GC, so no build pays for its predecessor's
// garbage.
func setupMedian[T closer](reps int, build func() (T, error)) (T, float64, error) {
	var sys T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			sys.close()
		}
		runtime.GC()
		t0 := time.Now()
		s, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		sys = s
	}
	return sys, median(times), nil
}

// histDelta returns after[op] - before[op] for a histogram snapshot map.
func histDelta(before, after map[string]obs.Snapshot, ops ...string) obs.Snapshot {
	var d obs.Snapshot
	for _, op := range ops {
		d = d.Merge(after[op].Sub(before[op]))
	}
	return d
}

// meanUS is a histogram snapshot's mean in microseconds.
func meanUS(s obs.Snapshot) float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count) / 1e3
}

// serverOps are the daemon's data-path wire ops: the ones a client's
// work costs. Observer traffic (stats, metrics) is left out.
var serverOps = []string{
	"query", "query_batch", "covered", "subscribe", "subscribe_batch",
	"insert", "remove", "remove_batch", "get", "match",
}

// writeOps are the daemon's state-changing wire ops.
var writeOps = []string{"subscribe", "subscribe_batch", "insert", "remove", "remove_batch"}

// engineWrites are the engine's write-path histograms.
var engineWrites = []string{"engine_add_batch", "engine_insert", "engine_remove"}

// codecReplay times MarshalBinary and UnmarshalSubscription over subs,
// repeating whole passes until at least minDur has been spent on each,
// and returns the per-item nanoseconds. The spans bracket each timed
// loop.
func codecReplay(rec *recorder, subs []*subscription.Subscription, minDur time.Duration) (encNS, decNS float64, err error) {
	if len(subs) == 0 {
		return 0, 0, nil
	}
	schema := subs[0].Schema()
	payloads := make([][]byte, len(subs))
	items := 0
	h := rec.begin("subscription.MarshalBinary", -1, -1)
	t0 := time.Now()
	for time.Since(t0) < minDur {
		for i, s := range subs {
			if payloads[i], err = s.MarshalBinary(); err != nil {
				return 0, 0, err
			}
		}
		items += len(subs)
	}
	encNS = float64(time.Since(t0).Nanoseconds()) / float64(items)
	rec.end(h)

	items = 0
	h = rec.begin("subscription.UnmarshalSubscription", -1, -1)
	t0 = time.Now()
	for time.Since(t0) < minDur {
		for i, p := range payloads {
			got, err := subscription.UnmarshalSubscription(schema, p)
			if err != nil {
				return 0, 0, err
			}
			if !got.Equal(subs[i]) {
				return 0, 0, fmt.Errorf("subscription %d does not survive a codec round trip", i)
			}
		}
		items += len(payloads)
	}
	decNS = float64(time.Since(t0).Nanoseconds()) / float64(items)
	rec.end(h)
	return encNS, decNS, nil
}

// stageTimes replays a fixed sample of queries through Engine.TraceCover
// and returns the mean per-query decomposition time (decompose,
// truncate and cache-build stages) and probe time (probe loop,
// interleaved enumerate-and-probe and cache-replay stages), in µs.
func stageTimes(eng *engine.Engine, sample []*subscription.Subscription) (decomposeUS, probeUS float64) {
	var dec, probe time.Duration
	for _, s := range sample {
		_, tr := eng.TraceCover(s)
		for _, st := range tr.Stages {
			switch st.Name {
			case "decompose", "truncate", "cache_build":
				dec += st.Dur
			case "probes", "enumerate_probes", "cache_replay":
				probe += st.Dur
			}
		}
	}
	if len(sample) == 0 {
		return 0, 0
	}
	n := float64(len(sample))
	return float64(dec.Nanoseconds()) / n / 1e3, float64(probe.Nanoseconds()) / n / 1e3
}

// zeroLayers returns a per-layer map with every metric present and 0:
// the structural zero of a layer the workload does not exercise.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// latencyE2E fills the throughput and latency metrics from one timed
// phase.
func latencyE2E(m map[string]float64, ph *phase) {
	us := nsToUS(ph.latNS)
	m["throughput_ops_s"] = ph.throughput()
	m["latency_p50_us"] = quantile(us, 0.5)
	m["latency_p90_us"] = quantile(us, 0.9)
}

// overheadLayers fills the trace.* metrics from the traced and untraced
// phases' throughputs.
func overheadLayers(m map[string]float64, traced, untraced float64) {
	m["trace.traced_ops_s"] = traced
	m["trace.untraced_ops_s"] = untraced
	m["trace.overhead_frac"] = ratio(untraced-traced, untraced)
}

// finishTrace writes the run's spans under cfg.outDir/traces, prints the
// per-name span summary and returns it.
func finishTrace(cfg *config, tr *tracer) (map[string]spanStat, error) {
	spans := tr.all()
	dir := filepath.Join(cfg.outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	stats := summarizeSpans(spans)
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	cfg.logf("spans: %d written to %s", len(spans), path)
	for _, name := range names {
		s := stats[name]
		cfg.logf("span %-36s count=%-7d p50_us=%-10.4g mean_us=%-10.4g self_mean_us=%.4g", name, s.Count, s.P50US, s.MeanUS, s.SelfMeanUS)
	}
	return stats, nil
}
