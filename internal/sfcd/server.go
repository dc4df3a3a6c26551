package sfcd

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/engine"
	"sfccover/internal/obs"
	"sfccover/internal/persist"
	"sfccover/internal/subscription"
)

// ServerConfig parameterizes the daemon's hardening knobs; the zero value
// is fully permissive (no connection limit, no read timeout).
type ServerConfig struct {
	// MaxConns caps concurrently open client connections (0 = unlimited).
	// A connection beyond the cap receives one connection-level error
	// frame (code "conn_limit") and is closed.
	MaxConns int
	// ReadTimeout bounds the wait for the next request frame on a
	// connection (0 = none). A connection that stays idle — or stalls
	// mid-frame — past the timeout is reaped, freeing its MaxConns slot.
	ReadTimeout time.Duration
}

// connInflight bounds how many of one connection's pipelined requests are
// served concurrently; further frames queue in the read loop. It trades
// goroutine fan-out against the memory of buffered responses.
const connInflight = 32

// Server serves the sfcd protocol on top of one Engine. Connections are
// handled concurrently, and so are the pipelined requests within one
// connection: each request frame is dispatched to its own handler (bounded
// by connInflight) and responses are written as they complete — out of
// request order when a slow covering query overlaps a fast ping. Clients
// match responses to requests by id.
//
// Besides the engine — the shared namespace — the server lazily maintains
// one isolated provider per named link (see the package comment on link
// namespaces), built from the engine's detector template.
type Server struct {
	eng    *engine.Engine
	schema *subscription.Schema
	scfg   ServerConfig
	// shared answers the empty-link namespace: the engine itself, or its
	// durable wrapper when the server runs with a store.
	shared core.Provider
	store  *persist.Store

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	linkMu sync.Mutex
	links  map[string]core.Provider

	// obs is adopted from the engine (nil when the engine runs with
	// TelemetryOff): wire-op dispatch latencies are recorded into it, so
	// the daemon's op histograms and the engine's internal stage
	// histograms share one registry and one exposition.
	obs *obs.Observer
	// opLat holds the pre-resolved per-op histograms the request path
	// records into (nil when obs is nil).
	opLat *opHists

	// primary is false while the server is a read-only follower draining
	// a primary's replication stream; Promote flips it (exactly once) to
	// true. The atomic store publishes the hydrated shared provider and
	// links: serve() loads it before touching either, so an op observing
	// true also observes the completed hydration.
	primary atomic.Bool
	// promoteMu serializes Promote against itself and Close.
	promoteMu sync.Mutex
	// followAddr/followStop/followDone bracket the follower tail loop;
	// nil on servers born primary.
	followAddr     string
	followStop     chan struct{}
	followDone     chan struct{}
	stopFollowOnce sync.Once

	// Replication telemetry, rendered by MetricsText. The counters split
	// by side: streamed/followers count the primary serving tails,
	// applied/resets/reconnects count the follower consuming one.
	repStreamed   obs.Counter // records streamed out to followers
	repApplied    obs.Counter // records applied from the primary's stream
	repResets     obs.Counter // full-state resets installed
	repReconnects obs.Counter // stream (re)connect attempts
	repFollowers  obs.Gauge   // live follower streams being served
	repPrimaryPos obs.Gauge   // primary's stream position, as last seen
}

// NewServer wraps an engine in a protocol server with permissive
// hardening defaults. The server does not own the engine: Close stops
// serving but leaves the engine usable.
func NewServer(eng *engine.Engine) *Server {
	return NewServerWith(eng, ServerConfig{})
}

// NewServerWith wraps an engine in a protocol server with the given
// hardening configuration.
func NewServerWith(eng *engine.Engine, cfg ServerConfig) *Server {
	s := &Server{
		eng:    eng,
		schema: eng.Schema(),
		scfg:   cfg,
		shared: eng,
		conns:  make(map[net.Conn]struct{}),
		links:  make(map[string]core.Provider),
		obs:    eng.Observer(),
	}
	if s.obs != nil {
		s.opLat = newOpHists(s.obs.Hist)
	}
	s.primary.Store(true)
	return s
}

// NewPersistentServer wraps an engine in a protocol server whose
// subscription state is durable under the store: the shared engine is
// recovered from (and logs to) the store's empty link, every named link
// namespace recorded in the store is rebuilt eagerly at boot — so a
// restarted daemon serves its full pre-crash state before the first
// request — and links created later log from their first subscription.
// The engine must be freshly built (recovery bulk-loads into it); the
// store must be freshly opened and outlive the server. The caller still
// owns both: Close stops serving without closing engine or store, but it
// does close the recovered link namespaces.
func NewPersistentServer(eng *engine.Engine, store *persist.Store, cfg ServerConfig) (*Server, error) {
	if store.Schema() != eng.Schema() {
		return nil, fmt.Errorf("sfcd: store schema differs from engine schema")
	}
	s := NewServerWith(eng, cfg)
	s.store = store
	if err := s.hydrate(); err != nil {
		return nil, err
	}
	return s, nil
}

// hydrate wraps the engine in the store's shared link and eagerly
// rebuilds every named link namespace the store records — the boot path
// of a persistent primary, and the promotion path of a follower whose
// store just finished draining the stream. On failure everything built
// so far is unwound: the store links are released (a retry over the same
// open store would otherwise hit "already wrapped") and the orphaned
// detectors closed.
func (s *Server) hydrate() error {
	shared, err := s.store.Durable("", s.eng)
	if err != nil {
		return fmt.Errorf("sfcd: recovering shared engine: %w", err)
	}
	s.shared = shared
	for _, link := range s.store.Links() {
		if link == "" {
			continue
		}
		p, err := s.buildLink(link)
		if err != nil {
			s.linkMu.Lock()
			links := s.links
			s.links = make(map[string]core.Provider)
			s.linkMu.Unlock()
			for _, built := range links {
				built.Close()
			}
			shared.Release()
			s.shared = s.eng
			return fmt.Errorf("sfcd: recovering link %q: %w", link, err)
		}
		s.linkMu.Lock()
		s.links[link] = p
		s.linkMu.Unlock()
	}
	return nil
}

// NewFollowerServer wraps an engine in a read-only follower: its store
// tails the primary at primaryAddr (reconnecting with jittered backoff
// across primary deaths) and the engine stays cold until Promote, which
// stops the stream and hydrates the engine from the drained store.
// Until then every state-touching op answers with code "not_primary";
// ping, hello, promote, replicate (chained followers) and the shared
// metrics page are served. The engine must be freshly built and the
// store freshly opened with no providers wrapped; the caller owns both,
// as with NewPersistentServer.
func NewFollowerServer(eng *engine.Engine, store *persist.Store, cfg ServerConfig, primaryAddr string) (*Server, error) {
	if store.Schema() != eng.Schema() {
		return nil, fmt.Errorf("sfcd: store schema differs from engine schema")
	}
	s := NewServerWith(eng, cfg)
	s.store = store
	s.primary.Store(false)
	s.followAddr = primaryAddr
	s.followStop = make(chan struct{})
	s.followDone = make(chan struct{})
	go s.followLoop()
	return s, nil
}

// Promote flips a follower to primary: the tail loop is stopped (the
// frame being applied completes first, so the stream is drained of
// everything received), the engine is hydrated from the store, and the
// full op surface opens. Idempotent on a primary. On hydration failure
// the server stays a follower with its stream stopped; Promote can be
// retried.
func (s *Server) Promote() error {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.primary.Load() {
		return nil
	}
	s.stopFollow()
	if err := s.hydrate(); err != nil {
		return err
	}
	s.primary.Store(true)
	return nil
}

// Role reports RolePrimary or RoleFollower.
func (s *Server) Role() string {
	if s.primary.Load() {
		return RolePrimary
	}
	return RoleFollower
}

// stopFollow ends the tail loop and waits for it. Safe to call multiple
// times and on servers born primary (no-op).
func (s *Server) stopFollow() {
	if s.followStop == nil {
		return
	}
	s.stopFollowOnce.Do(func() { close(s.followStop) })
	<-s.followDone
}

// SharedProvider returns the provider behind the empty-link namespace:
// the engine itself, or its durable wrapper on a persistent server.
// Metrics endpoints render from it so durability counters are visible.
func (s *Server) SharedProvider() core.Provider { return s.shared }

// Listen binds addr (e.g. "127.0.0.1:7421", ":0" for an ephemeral port)
// and starts accepting connections in the background. It returns the bound
// address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sfcd: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("sfcd: server is closed")
	}
	s.ln = ln
	s.wg.Add(1) // under s.mu: see the comment in acceptLoop
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr(), nil
}

// Serve accepts connections on ln until the listener fails or the server
// is closed. It is the blocking alternative to Listen for callers that
// manage their own listener.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("sfcd: server is closed")
	}
	s.ln = ln
	s.mu.Unlock()
	return s.acceptLoop(ln)
}

func (s *Server) acceptLoop(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("sfcd: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if s.scfg.MaxConns > 0 && len(s.conns) >= s.scfg.MaxConns {
			// wg.Add must happen while s.mu still proves !s.closed: Close
			// sets closed under the same lock before wg.Wait, so Adding
			// here can never race a Wait that already observed zero.
			s.wg.Add(1)
			s.mu.Unlock()
			// Off the accept loop: refuse waits (bounded) for the client's
			// hello, and a dialer that sends nothing must not stall accepts.
			go func() {
				defer s.wg.Done()
				refuse(conn, s.scfg.MaxConns)
			}()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// refuse answers an over-limit connection with one clean connection-level
// error frame (id 0) and closes it, so clients fail with a diagnosis
// instead of a dropped connection. It consumes the client's first frame
// (the hello) before closing: closing with unread data in the receive
// buffer provokes a TCP reset that can discard the error frame before
// the client reads it.
func refuse(conn net.Conn, limit int) {
	defer conn.Close()
	deadline := time.Now().Add(time.Second)
	conn.SetWriteDeadline(deadline)
	frame, err := appendResponse(nil, &Response{
		OK:    false,
		Code:  CodeConnLimit,
		Error: fmt.Sprintf("connection limit %d reached", limit),
	})
	if err != nil {
		return
	}
	if _, err := conn.Write(frame); err != nil {
		return
	}
	conn.SetReadDeadline(deadline)
	discardFrame(conn) //nolint:errcheck // drain the hello, best effort
}

// Close stops the listener, drops every open connection, waits for the
// handlers to drain and releases the link-namespace providers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.stopFollow()
	s.wg.Wait()
	s.linkMu.Lock()
	links := s.links
	s.links = make(map[string]core.Provider)
	s.linkMu.Unlock()
	for _, p := range links {
		p.Close()
	}
	if d, ok := s.shared.(*persist.DurableProvider); ok {
		// The engine is not ours to close, but the store link must be
		// released so a successor server can re-wrap it.
		d.Release()
	}
	return nil
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// connResponse is one writer-queue entry; closeAfter marks a
// connection-level (id 0) error frame, after which the connection dies.
type connResponse struct {
	resp       *Response
	closeAfter bool
}

// connState is the per-connection context handlers work against: the
// writer queue, plus what the one streaming op (replicate) needs — a
// signal that the read loop exited (the stream's cancellation) and a
// flag exempting the connection from idle reaping while it streams (a
// follower sends nothing after its replicate frame, which is not idleness).
type connState struct {
	conn       net.Conn
	respCh     chan connResponse
	readerGone chan struct{}
	streaming  atomic.Bool
}

// handleConn pumps one connection: the read loop dispatches each request
// frame to a pool of handler workers (grown on demand up to connInflight —
// persistent workers keep warmed-up stacks across requests, while an idle
// connection holds only what its pipelining depth ever needed), and a
// writer goroutine serializes the responses back, flushing only when its
// queue runs dry so bursts of pipelined completions share syscalls.
func (s *Server) handleConn(conn net.Conn) {
	defer s.dropConn(conn)
	cs := &connState{
		conn:       conn,
		respCh:     make(chan connResponse, connInflight),
		readerGone: make(chan struct{}),
	}
	respCh := cs.respCh
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w := bufio.NewWriter(conn)
		var frame []byte // reused: frames are copied into w before the next encode
		broken := false
		for out := range respCh {
			if broken {
				continue // drain so handlers never block on a dead conn
			}
			frame = encodeResponse(frame[:0], out.resp)
			if _, err := w.Write(frame); err != nil {
				broken = true
				continue
			}
			if out.closeAfter {
				// A connection-level error frame: flush it, then tear the
				// connection down as the protocol promises.
				w.Flush() //nolint:errcheck // the connection dies either way
				conn.Close()
				broken = true
				continue
			}
			if len(respCh) == 0 {
				// Give concurrently completing handlers one scheduler pass
				// to join this flush (see the client's writeLoop).
				runtime.Gosched()
			}
			if len(respCh) == 0 {
				if err := w.Flush(); err != nil {
					broken = true
				}
			}
		}
	}()

	frames := make(chan *frameBuf) // unbuffered: a send means a worker has it
	var handlers sync.WaitGroup
	workers := 0
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		if s.scfg.ReadTimeout > 0 && !cs.streaming.Load() {
			conn.SetReadDeadline(time.Now().Add(s.scfg.ReadTimeout))
		}
		// Each frame gets its own pooled buffer: the handler decodes
		// payloads straight out of it while this loop reads the next one,
		// and returns it to the pool once the request is served.
		fb := getFrame()
		body, err := ReadFrame(br, fb.b)
		fb.b = body
		if err != nil {
			putFrame(fb)
			if errors.Is(err, ErrFrameTooLarge) {
				// The length header is all we read, so the frame cannot be
				// skipped: answer with the limit, then close.
				cs.respCh <- connResponse{
					resp:       &Response{OK: false, Code: CodeBadRequest, Error: err.Error()},
					closeAfter: true,
				}
			}
			break
		}
		select {
		case frames <- fb: // an idle worker took it
		default:
			if workers < connInflight {
				workers++
				handlers.Add(1)
				go func() {
					defer handlers.Done()
					for f := range frames {
						s.handleFrame(f.b, cs)
						putFrame(f)
					}
				}()
			}
			frames <- fb
		}
	}
	close(cs.readerGone) // cancels any replicate stream on this connection
	close(frames)
	handlers.Wait()
	close(respCh)
	<-writerDone
}

// handleFrame decodes and serves one request frame, queueing the
// response (or, for the streaming replicate op, every frame of the
// stream) on the connection's writer. Frames whose header the server
// cannot parse — and requests carrying the reserved id 0 — get a
// connection-level error frame: the response cannot be attributed to a
// request id, and a pipelining client must treat an id-0 frame as fatal
// (a stray one would otherwise poison response demultiplexing), so the
// connection is closed after it. The request's payloads alias body, which
// the caller recycles once handleFrame returns.
//
//sfc:hotpath
func (s *Server) handleFrame(body []byte, cs *connState) {
	var req Request
	err := decodeRequest(body, &req)
	if req.ID == 0 {
		msg := "request id 0 is reserved for connection-level frames"
		if err != nil {
			msg = fmt.Sprintf("malformed request: %v", err)
		}
		cs.respCh <- connResponse{
			resp:       &Response{OK: false, Code: CodeBadRequest, Error: msg},
			closeAfter: true,
		}
		return
	}
	if err != nil {
		resp := &Response{OK: false, Code: CodeBadRequest, Error: err.Error()}
		if errors.Is(err, errUnknownOp) {
			resp = &Response{OK: false, Code: CodeUnknownOp, Error: err.Error()}
		}
		resp.ID, resp.Op = req.ID, req.Op
		cs.respCh <- connResponse{resp: resp}
		return
	}
	if req.Op == OpReplicate {
		// The one streaming op: many response frames per request, open
		// until the stream ends. It occupies this worker slot for the
		// connection's lifetime and is not per-op latency metered (a
		// stream's duration is not a latency).
		s.serveReplicate(req, cs)
		return
	}
	var t0 time.Time
	if s.obs != nil {
		//sfc:allowclock one clock pair per request is the op histogram's contract: it times every daemon op exactly
		t0 = time.Now()
	}
	resp := s.serve(req)
	if s.obs != nil {
		//sfc:allowclock pairs with the t0 read above; the histogram itself is pre-resolved, not fetched
		s.opLat.observe(req.Op, time.Since(t0))
	}
	resp.ID, resp.Op = req.ID, req.Op
	cs.respCh <- connResponse{resp: resp}
}

// encodeResponse appends resp's frame to dst. A reply that cannot be
// framed — a control body JSON rejects, or one beyond MaxFrameBytes that
// the client would refuse to read — goes out as an op_failed frame under
// the same id instead.
func encodeResponse(dst []byte, resp *Response) []byte {
	start := len(dst)
	out, err := appendResponse(dst, resp)
	if err == nil && len(out)-start-4 > MaxFrameBytes {
		err = fmt.Errorf("%d-byte reply exceeds the %d-byte frame limit", len(out)-start-4, MaxFrameBytes)
	}
	if err == nil {
		return out
	}
	out, _ = appendResponse(out[:start], &Response{ID: resp.ID, Op: resp.Op, OK: false, Code: CodeOpFailed, Error: err.Error()})
	return out
}

// linkSeed derives a link namespace's index seed from the engine
// template's, so distinct links build independent index randomness.
func linkSeed(base int64, link string) int64 {
	h := fnv.New64a()
	h.Write([]byte(link)) //nolint:errcheck // fnv never fails
	return base ^ int64(h.Sum64())
}

// buildLink constructs one named link namespace from the engine's
// detector template, durably wrapped when the server runs with a store.
func (s *Server) buildLink(link string) (core.Provider, error) {
	dc := s.eng.Config().Detector
	dc.Seed = linkSeed(dc.Seed, link)
	p, err := core.New(dc)
	if err != nil {
		return nil, err
	}
	if s.obs != nil {
		// Link detectors share the daemon's observer, so their run probes
		// land in the same "run_probe" histogram. Safe here: the detector
		// is not yet published to any other goroutine.
		p.SetObserver(s.obs)
	}
	if s.store == nil {
		return p, nil
	}
	d, err := s.store.Durable(link, p)
	if err != nil {
		p.Close()
		return nil, err
	}
	return d, nil
}

// provider resolves the namespace a request addresses: the shared engine
// for the empty link, a lazily created detector — cloned from the
// engine's template configuration — for any other.
func (s *Server) provider(link string) (core.Provider, error) {
	if link == "" {
		return s.shared, nil
	}
	s.linkMu.Lock()
	defer s.linkMu.Unlock()
	if p, ok := s.links[link]; ok {
		return p, nil
	}
	p, err := s.buildLink(link)
	if err != nil {
		return nil, fmt.Errorf("building link %q: %w", link, err)
	}
	s.links[link] = p
	return p, nil
}

// unlink tears a link namespace down; unknown links succeed (idempotent).
// On a persistent server unlink releases only the in-memory index: the
// namespace's durable state survives and the link rematerializes from it
// — subscriptions included — on its next use, which is what lets clients
// release runtime resources without forfeiting durability. (Destroying
// durable state is persist.DurableProvider.Purge, a store-owner
// decision, not a wire operation.)
func (s *Server) unlink(link string) *Response {
	if link == "" {
		return &Response{OK: false, Code: CodeBadRequest, Error: "cannot unlink the shared engine"}
	}
	s.linkMu.Lock()
	p, ok := s.links[link]
	delete(s.links, link)
	s.linkMu.Unlock()
	if ok {
		p.Close()
	}
	return &Response{OK: true}
}

// serve dispatches one request.
func (s *Server) serve(req Request) *Response {
	if !s.primary.Load() {
		// A follower's engine is cold: its state lives only in the store
		// mirror until promotion hydrates it. Refuse everything that
		// would touch (or lazily build) a provider; what remains is
		// liveness (ping, hello), the promotion trigger, the shared
		// metrics page and — for chained followers — the stream itself,
		// which reads the store, not the engine.
		switch req.Op {
		case OpPing, OpHello, OpPromote:
		case OpMetrics:
			if req.Link != "" {
				return &Response{OK: false, Code: CodeNotPrimary, Error: "daemon is a follower; link metrics are served by the primary"}
			}
			return &Response{OK: true, Metrics: s.MetricsText()}
		default:
			return &Response{OK: false, Code: CodeNotPrimary, Error: "daemon is a follower; promote it or address the primary"}
		}
	}
	switch req.Op {
	case OpPing:
		return &Response{OK: true}
	case OpHello:
		return &Response{
			OK:     true,
			Bits:   s.schema.Bits(),
			Attrs:  s.schema.Attrs(),
			Shards: s.eng.NumShards(),
			Mode:   s.eng.Mode().String(),
			Role:   s.Role(),
		}
	case OpPromote:
		if s.store == nil {
			return &Response{OK: false, Code: CodeUnsupported, Error: "daemon runs without a data dir"}
		}
		if err := s.Promote(); err != nil {
			return errResponse(err)
		}
		return &Response{OK: true, Role: s.Role()}
	case OpUnlink:
		return s.unlink(req.Link)
	case OpTrace:
		return s.trace(req)
	case OpSlowlog:
		return s.slowlog(req)
	}
	prov, err := s.provider(req.Link)
	if err != nil {
		return errResponse(err)
	}
	switch req.Op {
	case OpSubscribe:
		sub, err := s.decodeSub(req.Payload)
		if err != nil {
			return badRequest(err)
		}
		sid, covered, coveredBy, err := prov.Add(sub)
		if err != nil {
			return errResponse(err)
		}
		return okResult(Result{SID: sid, Covered: covered, CoveredBy: coveredBy})
	case OpInsert:
		sub, err := s.decodeSub(req.Payload)
		if err != nil {
			return badRequest(err)
		}
		sid, err := prov.Insert(sub)
		if err != nil {
			return errResponse(err)
		}
		return okResult(Result{SID: sid})
	case OpSubscribeBatch:
		subs, errs := s.decodeSubs(req.Payloads)
		return &Response{OK: true, Results: s.addBatch(prov, subs, errs)}
	case OpUnsubscribe:
		if err := prov.Remove(req.SID); err != nil {
			return errResponse(err)
		}
		return okResult(Result{SID: req.SID})
	case OpUnsubscribeBatch:
		results := make([]Result, len(req.SIDs))
		errs := removeBatch(prov, req.SIDs)
		for i, err := range errs {
			results[i] = Result{SID: req.SIDs[i]}
			if err != nil {
				results[i].Error = err.Error()
			}
		}
		return &Response{OK: true, Results: results}
	case OpQuery:
		sub, err := s.decodeSub(req.Payload)
		if err != nil {
			return badRequest(err)
		}
		id, found, _, err := prov.FindCover(sub)
		if err != nil {
			return errResponse(err)
		}
		return okResult(Result{Covered: found, CoveredBy: id})
	case OpQueryBatch:
		subs, errs := s.decodeSubs(req.Payloads)
		queried := core.CoverQueries(prov, compact(subs))
		results := make([]Result, len(subs))
		j := 0
		for i := range subs {
			switch {
			case errs[i] != nil:
				results[i] = Result{Error: errs[i].Error()}
			case queried[j].Err != nil:
				results[i] = Result{Error: queried[j].Err.Error()}
				j++
			default:
				results[i] = Result{Covered: queried[j].Covered, CoveredBy: queried[j].CoveredBy}
				j++
			}
		}
		return &Response{OK: true, Results: results}
	case OpCovered:
		sub, err := s.decodeSub(req.Payload)
		if err != nil {
			return badRequest(err)
		}
		id, found, _, err := prov.FindCovered(sub)
		if err != nil {
			return errResponse(err)
		}
		return okResult(Result{Covered: found, CoveredBy: id})
	case OpGet:
		sub, ok := prov.Subscription(req.SID)
		if !ok {
			return &Response{OK: false, Code: CodeOpFailed, Error: fmt.Sprintf("no subscription with id %d", req.SID)}
		}
		raw, err := sub.MarshalBinary()
		if err != nil {
			return errResponse(err)
		}
		return okResult(Result{SID: req.SID, Payload: raw})
	case OpMatch:
		sub, err := s.decodeEventAsSub(req.Payload)
		if err != nil {
			return badRequest(err)
		}
		id, found, _, err := prov.FindCover(sub)
		if err != nil {
			return errResponse(err)
		}
		return okResult(Result{Covered: found, CoveredBy: id})
	case OpStats:
		ps := prov.Stats()
		return &Response{OK: true, Stats: &Stats{
			Queries:           ps.Queries,
			Hits:              ps.Hits,
			RunsProbed:        ps.RunsProbed,
			CubesGenerated:    ps.CubesGenerated,
			ShardSearches:     ps.ShardSearches,
			DecompCacheHits:   ps.DecompCacheHits,
			DecompCacheMisses: ps.DecompCacheMisses,
			Subscriptions:     ps.Subscriptions,
			ShardSizes:        ps.ShardSizes,
			MaxShardSize:      ps.MaxShardSize,
			MinShardSize:      ps.MinShardSize,
			SkewRatio:         ps.SkewRatio,
			Rebalances:        ps.Rebalances,
			BoundaryMoves:     ps.BoundaryMoves,
			MigratedEntries:   ps.MigratedEntries,
			Snapshots:         ps.Snapshots,
			WALRecords:        ps.WALRecords,
			WALBytes:          ps.WALBytes,
		}}
	case OpRebalance:
		rb, ok := prov.(core.Rebalancer)
		if !ok {
			return &Response{OK: false, Code: CodeUnsupported, Error: "provider does not support rebalancing"}
		}
		res, err := rb.Rebalance()
		if err != nil {
			if errors.Is(err, core.ErrRebalanceUnsupported) {
				return &Response{OK: false, Code: CodeUnsupported, Error: err.Error()}
			}
			return errResponse(err)
		}
		return &Response{OK: true, Rebalance: &RebalanceInfo{
			Moves:      res.Moves,
			Migrated:   res.Migrated,
			SkewBefore: res.SkewBefore,
			SkewAfter:  res.SkewAfter,
		}}
	case OpSnapshot:
		ps, ok := prov.(core.Persister)
		if !ok {
			return &Response{OK: false, Code: CodeUnsupported, Error: "daemon runs without a data dir"}
		}
		if err := ps.Snapshot(); err != nil {
			return errResponse(err)
		}
		return &Response{OK: true}
	case OpMetrics:
		if req.Link == "" {
			// The shared namespace gets the full daemon page: scalar
			// counters plus latency histograms and per-link gauges.
			return &Response{OK: true, Metrics: s.MetricsText()}
		}
		return &Response{OK: true, Metrics: RenderPrometheus(prov.Stats())}
	default:
		return &Response{OK: false, Code: CodeUnknownOp, Error: fmt.Sprintf("unknown op %s", req.Op)}
	}
}

// addBatch runs the arrival path for a decoded batch against any
// provider, through the core.BatchWriter capability when the provider has
// one (the engine's parallel queries and shard-grouped bulk insert) and
// one Add at a time otherwise. Results align with the request payloads;
// decode failures occupy their slots.
func (s *Server) addBatch(prov core.Provider, subs []*subscription.Subscription, errs []error) []Result {
	results := make([]Result, len(subs))
	added := core.AddAll(prov, compact(subs))
	j := 0
	for i := range subs {
		switch {
		case errs[i] != nil:
			results[i] = Result{Error: errs[i].Error()}
		case added[j].Err != nil:
			results[i] = Result{Error: added[j].Err.Error()}
			j++
		default:
			r := added[j]
			results[i] = Result{SID: r.ID, Covered: r.Covered, CoveredBy: r.CoveredBy}
			j++
		}
	}
	return results
}

// removeBatch deletes a batch of ids through the provider's batch
// capability when available, one at a time otherwise.
func removeBatch(prov core.Provider, sids []uint64) []error {
	return core.RemoveAll(prov, sids)
}

func errResponse(err error) *Response {
	return &Response{OK: false, Code: CodeOpFailed, Error: err.Error()}
}

func badRequest(err error) *Response {
	return &Response{OK: false, Code: CodeBadRequest, Error: err.Error()}
}

// decodeSub decodes one payload against the server schema.
func (s *Server) decodeSub(payload []byte) (*subscription.Subscription, error) {
	return subscription.UnmarshalSubscription(s.schema, payload)
}

// decodeSubs decodes a batch; per-item failures leave a nil subscription
// and a non-nil error at the same index.
func (s *Server) decodeSubs(payloads [][]byte) ([]*subscription.Subscription, []error) {
	subs := make([]*subscription.Subscription, len(payloads))
	errs := make([]error, len(payloads))
	for i, p := range payloads {
		subs[i], errs[i] = s.decodeSub(p)
	}
	return subs, errs
}

// decodeEventAsSub decodes a binary event and lifts it to the degenerate
// subscription that constrains every attribute to the event's value; its
// covers are exactly the subscriptions matching the event.
func (s *Server) decodeEventAsSub(payload []byte) (*subscription.Subscription, error) {
	ev, err := subscription.UnmarshalEvent(s.schema, payload)
	if err != nil {
		return nil, err
	}
	sub := subscription.New(s.schema)
	for i, attr := range s.schema.Attrs() {
		if err := sub.SetEq(attr, ev[i]); err != nil {
			return nil, err
		}
	}
	return sub, nil
}

// compact copies the non-nil entries (failed decodes leave holes) so
// batches reach the provider dense.
func compact(subs []*subscription.Subscription) []*subscription.Subscription {
	out := make([]*subscription.Subscription, 0, len(subs))
	for _, s := range subs {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}
