package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"sfccover/internal/broker"
	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/persist"
	"sfccover/internal/sfcd"
	"sfccover/internal/subscription"
	"sfccover/internal/workload"
)

// overlay-churn: the full stack with writes beside reads. A broker
// overlay on BackendRemote (failover-mode client) keeps its per-link
// forwarded sets on an in-process persistent daemon that logs to a WAL
// with group commit. Each op first unsubscribes the oldest live
// subscription when window of them are live, then subscribes a new one,
// then publishes one event, draining the overlay after each call. (An op
// that either subscribes or unsubscribes would alternate the two in the
// steady state, and the median of that two-mode latency mix sits in the
// gap between the modes, swinging with a single op.)

const (
	churnMaxCubes = 5000
	churnBrokers  = 7
	churnClients  = 8
	// churnSyncEvery is the WAL's group-commit window.
	churnSyncEvery = 5 * time.Millisecond
	// churnPlanOps bounds the planned op sequence; a phase that reaches
	// its end stops early.
	churnPlanOps = 1 << 16
)

// churnOp is one planned op: an optional unsubscribe, a subscribe and a
// publish, each by some client.
type churnOp struct {
	unsub         bool
	uclient, usub int // unsubscribing client and its subscription
	client, sub   int // subscribing client; index into the subscription pool
	pub, event    int // publishing client; index into the event pool
}

// churnPlan derives the op sequence from the seed.
func churnPlan(seed int64, n, nSubs, nEvents, window int) []churnOp {
	rng := rand.New(rand.NewSource(seed))
	type held struct{ client, sub int }
	var live []held
	next := 0
	plan := make([]churnOp, n)
	for k := range plan {
		op := churnOp{pub: rng.Intn(churnClients), event: k % nEvents}
		if len(live) == window {
			op.unsub, op.uclient, op.usub = true, live[0].client, live[0].sub
			live = live[1:]
		}
		op.client, op.sub = rng.Intn(churnClients), next%nSubs
		next++
		live = append(live, held{op.client, op.sub})
		plan[k] = op
	}
	return plan
}

// churnInputs are overlay-churn's generated inputs.
type churnInputs struct {
	schema *subscription.Schema
	subs   []*subscription.Subscription
	events []subscription.Event
	plan   []churnOp
}

func makeChurnInputs(seed int64, sz sizes) (*churnInputs, error) {
	schema := newSchema()
	subs, err := workload.Subscriptions(workload.SubSpec{Schema: schema, N: sz.churnSubs, WidthFrac: churnWide, Seed: seed + 4})
	if err != nil {
		return nil, err
	}
	events, err := workload.Events(workload.EventSpec{Schema: schema, N: sz.churnEvents, Seed: seed + 3})
	if err != nil {
		return nil, err
	}
	return &churnInputs{
		schema: schema, subs: subs, events: events,
		plan: churnPlan(seed+5, churnPlanOps, len(subs), len(events), sz.window),
	}, nil
}

// overlay is a broker network with its attached clients and the number
// of plan ops applied to it so far.
type overlay struct {
	net     *broker.Network
	clients []*broker.Client
	done    int
}

func newOverlay(topo broker.Topology, cfg broker.Config) (*overlay, error) {
	net, err := broker.NewNetwork(topo, cfg)
	if err != nil {
		return nil, err
	}
	o := &overlay{net: net}
	for i := 0; i < churnClients; i++ {
		c, err := net.AttachClient(i % net.NumBrokers())
		if err != nil {
			net.Close()
			return nil, err
		}
		o.clients = append(o.clients, c)
	}
	return o, nil
}

// apply runs plan op k: each call and its Drain under a child span of
// the op's "op" span.
func (o *overlay) apply(in *churnInputs, k int, rec *recorder) error {
	op := in.plan[k]
	id := int64(k)
	root := rec.begin("op", id, -1)
	defer rec.end(root)
	call := func(name string, fn func() error) error {
		h := rec.begin(name, id, root)
		err := fn()
		d := rec.begin("broker.Network.Drain", id, h)
		o.net.Drain()
		rec.end(d)
		rec.end(h)
		if err != nil {
			return fmt.Errorf("op %d: %w", k, err)
		}
		return nil
	}
	if op.unsub {
		if err := call("broker.unsubscribe", func() error {
			return o.net.Unsubscribe(o.clients[op.uclient].ID, in.subs[op.usub])
		}); err != nil {
			return err
		}
	}
	if err := call("broker.subscribe", func() error {
		return o.net.Subscribe(o.clients[op.client].ID, in.subs[op.sub])
	}); err != nil {
		return err
	}
	return call("broker.publish", func() error {
		return o.net.Publish(o.clients[op.pub].ID, in.events[op.event])
	})
}

// drive applies the next plan ops until dur has passed (dur > 0), limit
// ops ran (limit > 0) or the plan ends.
func (o *overlay) drive(in *churnInputs, dur time.Duration, limit int, rec *recorder) *phase {
	ph := &phase{}
	start := time.Now()
	deadline := start.Add(dur)
	now := start
	for n := 0; o.done < len(in.plan); n++ {
		if dur > 0 && !now.Before(deadline) {
			break
		}
		if limit > 0 && n >= limit {
			break
		}
		t0 := time.Now()
		err := o.apply(in, o.done, rec)
		now = time.Now()
		o.done++
		if err != nil {
			ph.failed++
			if ph.err == nil {
				ph.err = err
			}
			continue
		}
		ph.sample(t0, now, 1)
	}
	ph.elapsed = time.Since(start)
	return ph
}

// received returns every client's delivered events.
func (o *overlay) received() [][]subscription.Event {
	out := make([][]subscription.Event, len(o.clients))
	for i, c := range o.clients {
		out[i] = c.Received
	}
	return out
}

// churnSystem is overlay-churn's set-up system: the persistent daemon
// (engine, store, server) and the overlay using it.
type churnSystem struct {
	dir   string
	eng   *engine.Engine
	store *persist.Store
	srv   *sfcd.Server
	addr  string
	ov    *overlay
}

// shutdown stops the overlay, the daemon and the store, keeping the
// data dir.
func (s *churnSystem) shutdown() error {
	if s.ov != nil {
		s.ov.net.Close()
		s.ov = nil
	}
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
	var err error
	if s.store != nil {
		err = s.store.Close()
		s.store = nil
	}
	if s.eng != nil {
		s.eng.Close()
		s.eng = nil
	}
	return err
}

func (s *churnSystem) close() {
	s.shutdown() //nolint:errcheck // teardown; the durability check reports store errors
	os.RemoveAll(s.dir)
}

// setupChurn boots the persistent daemon in a fresh data dir, builds the
// overlay on it and fills the live window with the plan's first ops.
func setupChurn(in *churnInputs, outDir string, window int) (*churnSystem, error) {
	dir, err := os.MkdirTemp(outDir, "churn-data-")
	if err != nil {
		return nil, err
	}
	s := &churnSystem{dir: dir}
	if err := s.boot(in, window); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *churnSystem) boot(in *churnInputs, window int) error {
	var err error
	if s.eng, err = newEngine(in.schema, churnMaxCubes); err != nil {
		return err
	}
	if s.store, err = persist.Open(s.dir, in.schema, persist.Options{SyncEvery: churnSyncEvery}); err != nil {
		return err
	}
	if s.srv, err = sfcd.NewPersistentServer(s.eng, s.store, sfcd.ServerConfig{}); err != nil {
		return err
	}
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = addr.String()
	s.ov, err = newOverlay(broker.BalancedTree(churnBrokers), broker.Config{
		Schema:        in.schema,
		Mode:          core.ModeApprox,
		Epsilon:       epsilon,
		MaxCubes:      churnMaxCubes,
		Seed:          engineSeed,
		Backend:       broker.BackendRemote,
		DaemonAddrs:   []string{s.addr},
		DaemonTimeout: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	if ph := s.ov.drive(in, 0, window, nil); ph.failed > 0 {
		return fmt.Errorf("filling the live window: %w", ph.err)
	}
	return nil
}

// floodReference replays the first n plan ops on a flooding overlay
// (ModeOff, in-process) and returns every client's deliveries.
func floodReference(in *churnInputs, n int) ([][]subscription.Event, error) {
	ov, err := newOverlay(broker.BalancedTree(churnBrokers), broker.Config{Schema: in.schema, Mode: core.ModeOff})
	if err != nil {
		return nil, err
	}
	defer ov.net.Close()
	for k := 0; k < n; k++ {
		if err := ov.apply(in, k, nil); err != nil {
			return nil, fmt.Errorf("flooding reference: %w", err)
		}
	}
	return ov.received(), nil
}

// checkOverlay runs overlay-churn's output checks after the measured
// phases: no protocol errors, deliveries equal to the flooding
// reference, the store's live state matching the overlay's forwarded
// sets, and that state recovered intact from the data dir after a
// shutdown. It shuts the system down.
func checkOverlay(in *churnInputs, s *churnSystem) error {
	if pe := s.ov.net.Metrics().ProtocolErrors; pe != 0 {
		return fmt.Errorf("overlay reported %d protocol errors", pe)
	}
	want, err := floodReference(in, s.ov.done)
	if err != nil {
		return err
	}
	if err := checkDeliveries(s.ov.received(), want); err != nil {
		return err
	}
	live := storeState(s.store)
	entries := 0
	for _, es := range live {
		entries += len(es)
	}
	if fwd := s.ov.net.ForwardedEntries(); fwd != entries {
		return fmt.Errorf("store holds %d entries, the overlay's forwarded sets %d", entries, fwd)
	}
	if err := s.shutdown(); err != nil {
		return fmt.Errorf("closing the store: %w", err)
	}
	st, err := persist.Open(s.dir, in.schema, persist.Options{})
	if err != nil {
		return fmt.Errorf("reopening the data dir: %w", err)
	}
	recovered := storeState(st)
	if err := st.Close(); err != nil {
		return fmt.Errorf("closing the reopened store: %w", err)
	}
	return checkRecovered(live, recovered)
}

// linkCacheStats sums the decomposition-cache counters of the daemon's
// link namespaces holding subscriptions, read over a separate client.
func linkCacheStats(cl *sfcd.Client, links []string) (hits, misses uint64, err error) {
	for _, link := range links {
		p, err := cl.Provider(link)
		if err != nil {
			return 0, 0, err
		}
		ps := p.Stats()
		hits += ps.DecompCacheHits
		misses += ps.DecompCacheMisses
	}
	return hits, misses, nil
}

func runOverlayChurn(cfg *config) (*outcome, error) {
	in, err := makeChurnInputs(cfg.seed, cfg.size)
	if err != nil {
		return nil, err
	}
	cfg.logf("overlay-churn: BalancedTree(%d) overlay, %d clients, backend=remote (failover-mode client) on a persistent daemon, eps=%g, maxcubes=%d, %d prefix shards; %d subscriptions (width %g), %d events, live window %d",
		churnBrokers, churnClients, epsilon, churnMaxCubes, shards, len(in.subs), churnWide, len(in.events), cfg.size.window)
	cfg.logf("overlay-churn: WAL flush policy: group commit, one fsync per %v window (persist.Options{SyncEvery: %v})", churnSyncEvery, churnSyncEvery)

	reps := cfg.size.churnSetupReps
	if cfg.trace {
		reps = 1
	}
	sys, setupS, err := setupMedian(reps, func() (*churnSystem, error) {
		return setupChurn(in, cfg.outDir, cfg.size.window)
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()
	heapMB := liveHeapMB()

	oc := &outcome{}
	count := func(ph *phase) {
		oc.attempted += ph.ops + ph.failed
		oc.failed += ph.failed
	}
	if !cfg.trace {
		m0, c0 := sys.ov.net.Metrics(), sys.ov.net.CoverTotals()
		ph := sys.ov.drive(in, cfg.seconds, 0, nil)
		m1, c1 := sys.ov.net.Metrics(), sys.ov.net.CoverTotals()
		count(ph)
		oc.e2e = map[string]float64{"setup_s": setupS, "heap_mb": heapMB}
		latencyE2E(oc.e2e, ph)
		oc.e2e["hit_frac"] = ratio(float64(c1.Hits-c0.Hits), float64(c1.Queries-c0.Queries))
		cfg.logf("forwards_per_op=%.6g (broker-to-broker subscribe messages per churn op)", ratio(float64(m1.SubscribeMsgs-m0.SubscribeMsgs), float64(ph.ops)))
		cfg.logf("latency samples=%d (one per churn op); %d ops applied in total including the window fill", len(ph.latNS), sys.ov.done)
		oc.checkErr = checkOverlay(in, sys)
		return oc, nil
	}

	obsCl, err := sfcd.DialContext(context.Background(), sfcd.DialConfig{Addr: sys.addr, Schema: in.schema})
	if err != nil {
		return nil, err
	}
	defer obsCl.Close()
	links := sys.store.Links()

	// Untraced phase, then the next ops traced. Both have fixed op
	// counts, so the traced phase starts from the same state for a seed
	// and its counters repeat exactly.
	p0 := takeProcSnap()
	uph := sys.ov.drive(in, 0, cfg.size.churnTraceOps, nil)
	p1 := takeProcSnap()
	tr := newTracer()
	rec := tr.recorder(8 * cfg.size.churnTraceOps)
	reg0, ws0, m0, c0 := sys.eng.Observer().Registry().Snapshot(), sys.store.Stats(), sys.ov.net.Metrics(), sys.ov.net.CoverTotals()
	h0, x0, err := linkCacheStats(obsCl, links)
	if err != nil {
		return nil, err
	}
	tph := sys.ov.drive(in, 0, cfg.size.churnTraceOps, rec)
	reg1, ws1, m1, c1 := sys.eng.Observer().Registry().Snapshot(), sys.store.Stats(), sys.ov.net.Metrics(), sys.ov.net.CoverTotals()
	h1, x1, err := linkCacheStats(obsCl, links)
	if err != nil {
		return nil, err
	}
	count(uph)
	count(tph)

	l := zeroLayers()
	if l["subscription.encode_ns"], l["subscription.decode_ns"], err = codecReplay(tr.recorder(2), in.subs, 20*time.Millisecond); err != nil {
		return nil, err
	}
	spans, err := finishTrace(cfg, tr)
	if err != nil {
		return nil, err
	}
	ops := float64(tph.ops)
	l["broker.subscribe_p50_us"] = spans["broker.subscribe"].P50US
	l["broker.unsubscribe_p50_us"] = spans["broker.unsubscribe"].P50US
	l["broker.publish_p50_us"] = spans["broker.publish"].P50US
	l["broker.forwards_per_op"] = ratio(float64(m1.SubscribeMsgs-m0.SubscribeMsgs), ops)
	l["broker.cover_queries_per_op"] = ratio(float64(c1.Queries-c0.Queries), ops)
	l["broker.suppressed_per_op"] = ratio(float64(m1.SuppressedForwards-m0.SuppressedForwards), ops)
	server := histDelta(reg0, reg1, serverOps...)
	l["sfcd.server_op_us"] = meanUS(server)
	l["sfcd.rpcs_per_op"] = ratio(float64(server.Count), ops)
	l["sfcd.write_op_us"] = meanUS(histDelta(reg0, reg1, writeOps...))
	l["engine.query_us"] = meanUS(histDelta(reg0, reg1, "engine_query"))
	l["engine.write_us"] = meanUS(histDelta(reg0, reg1, engineWrites...))
	q := float64(c1.Queries - c0.Queries)
	l["dominance.cubes_per_query"] = ratio(float64(c1.CubesGenerated-c0.CubesGenerated), q)
	l["dominance.runs_probed_per_query"] = ratio(float64(c1.RunsProbed-c0.RunsProbed), q)
	hits, misses := float64(h1-h0), float64(x1-x0)
	l["dominance.cache_hit_frac"] = ratio(hits, hits+misses)
	l["persist.wal_records_per_op"] = ratio(float64(ws1.WALRecords-ws0.WALRecords), ops)
	l["persist.wal_bytes_per_op"] = ratio(float64(ws1.WALBytes-ws0.WALBytes), ops)
	procMetrics(l, p0, p1, int(uph.ops))
	overheadLayers(l, tph.throughput(), uph.throughput())
	reportOverhead(cfg, tph, uph)
	cfg.logf("not measured here: sfcd.client_rtt_p50_us and sfcd.wire_self_us (the overlay's daemon client is internal to the broker), engine.* and dominance.decompose_us/probe_us (the daemon serves broker links from per-link core.Detectors, which bypass the Engine's histograms and TraceCover); they read 0")
	oc.checkErr = checkOverlay(in, sys)
	oc.layers = l
	return oc, nil
}
