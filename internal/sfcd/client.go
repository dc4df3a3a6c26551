package sfcd

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sfccover/internal/obs"
	"sfccover/internal/subscription"
)

// Sentinel errors of the client surface. Operation failures wrap one of
// these (or a *ServerError), so callers branch with errors.Is/errors.As
// instead of string matching.
var (
	// ErrSchemaMismatch is returned by Dial when the server's negotiated
	// schema (bit width, attribute names) differs from the client's.
	ErrSchemaMismatch = errors.New("sfcd: server schema differs from client schema")
	// ErrClientClosed is returned by operations issued after Close.
	ErrClientClosed = errors.New("sfcd: client is closed")
	// ErrConnectionLost is returned by operations that were in flight when
	// their connection failed (server restart, network drop). An op that
	// may have reached the server is never silently retried — the caller
	// decides whether its op is safe to reissue. What happens next depends
	// on the dial config: with a single Addr the failure is terminal and
	// callers dial a fresh client; with a replica list (DialConfig.Addrs)
	// the client reconnects in the background, ops whose request frame
	// provably never reached the socket are reissued transparently on the
	// replacement connection, and ops issued after the failure wait —
	// bounded by their context — for the next connection.
	ErrConnectionLost = errors.New("sfcd: connection lost")
	// ErrNotPrimary is returned when a failover client's dial finds the
	// daemon answering the hello as a follower: the failover path treats
	// it as a failed attempt and keeps cycling the replica list until one
	// of them is promoted. A plain (single-address) client accepts the
	// connection — pinging, scraping metrics and promoting all work on a
	// follower — and sees the not_primary refusal per state op instead.
	ErrNotPrimary = errors.New("sfcd: daemon is a follower, not a primary")
)

// errUnsent marks a connection failure observed before the request's frame
// was handed to the socket writer: the server cannot have seen the request,
// so reissuing it on the next connection is exactly-once safe. do wraps
// the terminal error with it and, in failover mode, retries instead of
// surfacing it. A frame the writer did pick up is never marked — the write
// may have partially reached the server, and a request frame that made it
// out whole may have been applied with its response lost, so those
// fail typed with ErrConnectionLost like before.
var errUnsent = errors.New("request was never written")

// ServerError is an error frame the server answered a request with.
type ServerError struct {
	// Code classifies the failure (CodeBadRequest, CodeOpFailed, ...).
	Code string
	// Msg is the human-readable explanation.
	Msg string
}

// Error implements error.
func (e *ServerError) Error() string {
	if e.Code == "" {
		return "sfcd: server: " + e.Msg
	}
	return "sfcd: server [" + e.Code + "]: " + e.Msg
}

// DefaultDialTimeout bounds connection establishment plus the hello
// exchange when DialConfig leaves DialTimeout zero.
const DefaultDialTimeout = 10 * time.Second

// writeBacklog buffers the frame queue between callers and the writer
// goroutine: senders enqueue without a synchronous handoff, and the
// writer drains whole bursts into one flush.
const writeBacklog = 256

// DialConfig parameterizes DialContext.
type DialConfig struct {
	// Addr is the server's TCP address. Required unless Addrs is set, in
	// which case it is simply tried first.
	Addr string
	// Addrs lists the replica set's addresses and switches the client
	// into failover mode: a lost connection is redialed in the background
	// with jittered exponential backoff, cycling the whole list (Addr
	// first if set) until a primary answers. Ops in flight at the failure
	// still fail with ErrConnectionLost — an op that may have reached the
	// server is never silently reissued — but ops issued afterwards wait,
	// bounded by their context or RequestTimeout, for the next
	// connection. Leave empty for the classic fail-fast single-connection
	// client.
	Addrs []string
	// Schema is the client's attribute schema (required); Dial verifies it
	// against the server's.
	Schema *subscription.Schema
	// DialTimeout bounds connection establishment and the hello exchange
	// (0 = DefaultDialTimeout). In failover mode it also bounds each
	// background reconnect attempt.
	DialTimeout time.Duration
	// RequestTimeout is the per-operation deadline applied to every
	// request whose context carries no deadline of its own (0 = none).
	// Failover-mode callers want one: it bounds how long an op waits for
	// a reconnection that may never come.
	RequestTimeout time.Duration
}

// clientConn owns one TCP connection's lifetime: the writer and reader
// goroutines, the pending-request demux map and the terminal error. The
// Client swaps these wholesale on failover; every request runs against
// exactly one clientConn from registration to response, so a
// reconnection can never cross-deliver another connection's frames.
type clientConn struct {
	conn net.Conn
	addr string

	writeCh chan outFrame
	done    chan struct{} // closed on terminal failure
	wg      sync.WaitGroup

	mu      sync.Mutex
	pending map[uint64]*pendingReq
	nextID  uint64
	err     error // terminal error, set once
}

// outFrame is one request's wire bytes queued for the writer goroutine,
// tagged with the request id so the writer can mark the pending entry
// handed (see pendingReq.handed) the moment it picks the frame up.
type outFrame struct {
	id    uint64
	frame *frameBuf
}

// pendingReq is one in-flight request's demux state. handed flips
// (under clientConn.mu, via the pending map) when the writer goroutine
// dequeues the request's frame: from then on bytes may have reached the
// server, so the request is no longer provably unsent and a connection
// failure fails it typed instead of retrying it. Entries whose frame died
// in writeCh — or was never enqueued at all — keep handed false and are
// safe to reissue.
type pendingReq struct {
	ch     chan *Response
	handed bool
}

// Client is a pipelined sfcd protocol client. Any number of goroutines
// may issue operations concurrently on one Client over one TCP
// connection: requests carry ids, a writer goroutine streams frames
// (coalescing bursts into single flushes), and a reader goroutine
// demultiplexes responses back to their callers — no caller ever waits
// behind another caller's round trip. Every operation takes a
// context.Context; cancellation abandons the call (the response, if it
// ever arrives, is discarded) without disturbing the connection.
//
// With DialConfig.Addrs set the client adds a failover layer: a lost
// connection is replaced in the background (jittered backoff, cycling
// the replica list, accepting only daemons that answer the hello as
// primary) and subsequent ops ride the new connection.
type Client struct {
	cfg      DialConfig
	schema   *subscription.Schema
	addrs    []string // rotation order; addrs[0] is the preferred address
	failover bool     // Addrs was set: reconnect instead of staying down

	closed     atomic.Bool // flipped by the first Close call
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	reconnWG   sync.WaitGroup

	connMu sync.Mutex
	cc     *clientConn   // nil while a failover client is between connections
	ready  chan struct{} // closed when cc becomes usable; replaced on disconnect

	// lat records per-op round-trip latencies (send to demultiplexed
	// response), client-side: queueing, the wire and the server's service
	// time all included — the number a router actually waits.
	lat *obs.Registry
	// opLat holds the pre-resolved per-op histograms do records into.
	opLat *opHists

	// Failover lifecycle counters (see FailoverStats).
	connLost   obs.Counter
	reconnects obs.Counter
	failovers  obs.Counter

	// Hello-negotiated server facts (connMu: refreshed on reconnect).
	shards int
	mode   string
}

// Dial connects to an sfcd server with default configuration and verifies
// with a hello exchange that the server's schema matches the client's
// (attribute names and bit width both participate in the binary wire
// format's header check, so a mismatch here fails fast — with
// ErrSchemaMismatch — instead of per request).
func Dial(addr string, schema *subscription.Schema) (*Client, error) {
	return DialContext(context.Background(), DialConfig{Addr: addr, Schema: schema})
}

// DialContext connects per cfg. The context bounds connection
// establishment and the hello exchange; the returned client is not tied
// to it. With cfg.Addrs set, the addresses are tried in order (Addr
// first) and the first daemon that answers the hello as a primary wins.
func DialContext(ctx context.Context, cfg DialConfig) (*Client, error) {
	if cfg.Schema == nil {
		return nil, errors.New("sfcd: dial config needs a schema")
	}
	addrs := make([]string, 0, len(cfg.Addrs)+1)
	if cfg.Addr != "" {
		addrs = append(addrs, cfg.Addr)
	}
	for _, a := range cfg.Addrs {
		if a != "" && !slices.Contains(addrs, a) {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, errors.New("sfcd: dial config needs an address")
	}
	c := &Client{
		cfg:      cfg,
		schema:   cfg.Schema,
		addrs:    addrs,
		failover: len(cfg.Addrs) > 0,
		ready:    make(chan struct{}),
		lat:      obs.NewRegistry(obs.DefaultMaxOps),
	}
	c.lifeCtx, c.lifeCancel = context.WithCancel(context.Background())
	c.opLat = newOpHists(c.lat.Hist)
	var errs []error
	for _, addr := range addrs {
		cc, err := c.dialOne(ctx, addr)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", addr, err))
			continue
		}
		c.install(cc)
		return c, nil
	}
	c.lifeCancel()
	if len(errs) == 1 {
		return nil, errs[0]
	}
	return nil, fmt.Errorf("sfcd: no dialable primary: %w", errors.Join(errs...))
}

// dialOne establishes and vets one connection: dial, hello, schema
// check, and — so a failover client never settles on a read-only
// replica — the role check. On success the connection's loops are
// already running.
func (c *Client) dialOne(ctx context.Context, addr string) (*clientConn, error) {
	dialTimeout := c.cfg.DialTimeout
	if dialTimeout == 0 {
		dialTimeout = DefaultDialTimeout
	}
	// One deadline covers connecting AND the hello exchange, as
	// documented — a server that accepts late and then stalls must not
	// get a second full timeout.
	deadline := time.Now().Add(dialTimeout)
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sfcd: %w", err)
	}
	cc := &clientConn{
		conn:    conn,
		addr:    addr,
		writeCh: make(chan outFrame, writeBacklog),
		done:    make(chan struct{}),
		pending: make(map[uint64]*pendingReq),
	}
	cc.wg.Add(2)
	go cc.readLoop()
	go cc.writeLoop()

	hctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	resp, err := c.doConn(hctx, cc, &Request{Op: OpHello})
	if err != nil {
		cc.shutdown(ErrClientClosed)
		return nil, err
	}
	if err := checkSchema(c.schema, resp); err != nil {
		cc.shutdown(ErrClientClosed)
		return nil, err
	}
	// Only a failover client rejects followers at dial time: it is
	// looking for the writable member. A plain client may want a
	// follower on purpose — to ping it, scrape metrics, or promote it —
	// and every state op fails there with a typed not_primary error
	// anyway.
	if c.failover && resp.Role == RoleFollower {
		cc.shutdown(ErrClientClosed)
		return nil, ErrNotPrimary
	}
	c.connMu.Lock()
	c.shards, c.mode = resp.Shards, resp.Mode
	c.connMu.Unlock()
	return cc, nil
}

// install publishes cc as the client's live connection, wakes every op
// waiting for one, and (in failover mode) arms the supervisor that will
// replace it when it dies. A connection racing a concurrent Close is
// torn down instead of published.
func (c *Client) install(cc *clientConn) {
	c.connMu.Lock()
	if c.closed.Load() {
		c.connMu.Unlock()
		cc.shutdown(ErrClientClosed)
		return
	}
	c.cc = cc
	ready := c.ready
	c.connMu.Unlock()
	close(ready)
	if c.failover {
		c.reconnWG.Add(1)
		go c.supervise(cc)
	}
}

// supervise watches one installed connection and, once it fails for any
// reason other than Close, retires it and runs the redial loop.
func (c *Client) supervise(cc *clientConn) {
	defer c.reconnWG.Done()
	<-cc.done
	cc.wg.Wait()
	if c.closed.Load() {
		return
	}
	c.connLost.Inc()
	c.connMu.Lock()
	if c.cc == cc {
		c.cc = nil
		c.ready = make(chan struct{})
	}
	c.connMu.Unlock()
	c.redial(cc.addr)
}

// redial cycles the replica list with jittered exponential backoff until
// a primary answers or the client is closed. The rotation starts at the
// address that just failed: a bounced primary that comes right back is
// preferred over a follower that would refuse anyway.
func (c *Client) redial(lastAddr string) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	start := max(slices.Index(c.addrs, lastAddr), 0)
	for attempt := 1; ; attempt++ {
		for i := range c.addrs {
			if c.closed.Load() {
				return
			}
			addr := c.addrs[(start+i)%len(c.addrs)]
			cc, err := c.dialOne(c.lifeCtx, addr)
			if err != nil {
				continue
			}
			c.reconnects.Inc()
			if addr != lastAddr {
				c.failovers.Inc()
			}
			c.install(cc)
			return
		}
		select {
		case <-c.lifeCtx.Done():
			return
		case <-time.After(followBackoff(rng, attempt)):
		}
	}
}

// checkSchema verifies the hello response against the client schema.
func checkSchema(schema *subscription.Schema, resp *Response) error {
	if resp.Bits != schema.Bits() || len(resp.Attrs) != schema.NumAttrs() {
		return fmt.Errorf("%w: server has %d bits and %d attrs, client has %d bits and %d attrs",
			ErrSchemaMismatch, resp.Bits, len(resp.Attrs), schema.Bits(), schema.NumAttrs())
	}
	for i, attr := range schema.Attrs() {
		if resp.Attrs[i] != attr {
			return fmt.Errorf("%w: server attribute %d is %q, client expects %q",
				ErrSchemaMismatch, i, resp.Attrs[i], attr)
		}
	}
	return nil
}

// Close shuts the client down. In-flight operations fail with
// ErrClientClosed, and a failover client stops reconnecting. The first
// call returns nil (even on a client whose connection already failed);
// every later call is rejected with ErrClientClosed — a specified, typed
// outcome instead of silently re-tearing-down, so recovery code that
// double-closes by accident gets a diagnosis rather than unspecified
// behavior.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return ErrClientClosed
	}
	c.lifeCancel()
	c.connMu.Lock()
	cc := c.cc
	c.connMu.Unlock()
	if cc != nil {
		cc.fail(ErrClientClosed)
		cc.wg.Wait()
	}
	c.reconnWG.Wait()
	return nil
}

// Schema returns the client's attribute schema.
func (c *Client) Schema() *subscription.Schema { return c.schema }

// Shards reports the server's shard count (from the latest hello
// exchange).
func (c *Client) Shards() int {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.shards
}

// Mode reports the server's detection mode.
func (c *Client) Mode() string {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.mode
}

// Addr reports the address of the connection currently carrying
// requests, or "" while a failover client is between connections.
func (c *Client) Addr() string {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.cc == nil {
		return ""
	}
	return c.cc.addr
}

// FailoverStats is a point-in-time snapshot of a client's
// connection-lifecycle counters. All zeros on a single-address client
// that never lost its connection.
type FailoverStats struct {
	// ConnLost counts connections that failed under the client.
	ConnLost uint64
	// Reconnects counts replacement connections successfully installed.
	Reconnects uint64
	// Failovers counts the subset of reconnects that landed on a
	// different address than the one that failed.
	Failovers uint64
}

// FailoverStats reports the client's connection-lifecycle counters.
func (c *Client) FailoverStats() FailoverStats {
	return FailoverStats{
		ConnLost:   c.connLost.Value(),
		Reconnects: c.reconnects.Value(),
		Failovers:  c.failovers.Value(),
	}
}

// acquireConn returns the connection to issue a request on. A fail-fast
// client always returns its one connection (dead or alive — the
// registration step surfaces the terminal error); a failover client
// blocks, bounded by ctx, while the redial loop hunts for a primary. A
// failover client that finds the installed connection already failed
// retires it on the spot rather than handing it out: the supervisor will
// replace it, but waiting here instead of bouncing requests off the
// corpse is what lets the unsent-retry path block until the replacement
// arrives.
func (c *Client) acquireConn(ctx context.Context) (*clientConn, error) {
	for {
		if c.closed.Load() {
			return nil, ErrClientClosed
		}
		c.connMu.Lock()
		cc, ready := c.cc, c.ready
		if cc != nil && c.failover {
			select {
			case <-cc.done:
				// Idempotent with the supervisor's own retirement: whichever
				// runs second sees c.cc no longer pointing at the corpse.
				c.cc = nil
				c.ready = make(chan struct{})
				cc, ready = nil, c.ready
			default:
			}
		}
		c.connMu.Unlock()
		if cc != nil {
			return cc, nil
		}
		select {
		case <-ready:
		case <-ctx.Done():
			return nil, fmt.Errorf("sfcd: waiting for reconnect: %w", ctx.Err())
		case <-c.lifeCtx.Done():
			return nil, ErrClientClosed
		}
	}
}

// fail records the terminal error (first one wins) and tears the
// connection down; every waiter and later caller observes it.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
		close(cc.done)
	}
	cc.mu.Unlock()
	cc.conn.Close()
}

// shutdown fails the connection and waits for its loops to exit.
func (cc *clientConn) shutdown(err error) {
	cc.fail(err)
	cc.wg.Wait()
}

// terminalErr returns the recorded terminal error.
func (cc *clientConn) terminalErr() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err
}

// register allocates a request id and parks pr to receive its response.
// Registration against an already-failed connection returns the terminal
// error; the request was provably never sent, so do may reissue it.
func (cc *clientConn) register(pr *pendingReq) (uint64, error) {
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return 0, fmt.Errorf("%w: %w", errUnsent, err)
	}
	cc.nextID++
	id := cc.nextID
	pr.handed = false
	cc.pending[id] = pr
	cc.mu.Unlock()
	return id, nil
}

// abandon gives up on a pending request (cancellation, connection
// failure) and settles the ownership of its response channel. Delivery
// happens under cc.mu while the pending entry exists (see readLoop), so
// exactly one of two states holds once the lock is taken: the entry is
// still present — no response was or ever will be delivered, so the
// entry is removed and the channel recycled — or the entry is gone,
// meaning the reader completed its send before releasing the lock, and
// the response is sitting in the (buffered) channel. Both paths leave
// the channel safely poolable; no third interleaving exists. This is
// the demux map's answer to the cancel-vs-fail race: the old scheme
// deleted the entry outside the delivery lock and had to leak the
// channel rather than risk a late send into a pooled — possibly
// reissued — channel.
//
// It also reports whether the writer ever picked the request's frame up
// (handed): false means the frame provably never reached the socket and
// the request is safe to reissue.
func (cc *clientConn) abandon(id uint64, pr *pendingReq) (resp *Response, handed bool) {
	cc.mu.Lock()
	_, mine := cc.pending[id]
	if mine {
		delete(cc.pending, id)
	}
	handed = pr.handed
	cc.mu.Unlock()
	if !mine {
		resp = <-pr.ch // guaranteed: the delivering send completed under cc.mu
	}
	reqPool.Put(pr)
	return resp, handed
}

// writeLoop streams frames onto the connection. A burst of pipelined
// requests is coalesced into one flush: after writing a frame it keeps
// draining queued frames before flushing, so concurrent callers share
// syscalls instead of paying one write+flush each.
func (cc *clientConn) writeLoop() {
	defer cc.wg.Done()
	w := bufio.NewWriter(cc.conn)
	for {
		select {
		case <-cc.done:
			return
		case f := <-cc.writeCh:
			if _, err := cc.write(w, f); err != nil {
				cc.fail(fmt.Errorf("%w: %v", ErrConnectionLost, err))
				return
			}
			// One scheduler yield lets concurrently submitting callers
			// land in this burst instead of each paying their own flush;
			// without it a loaded single-P process degenerates to one
			// frame per syscall.
			runtime.Gosched()
			coalescing := true
			for coalescing {
				select {
				case more := <-cc.writeCh:
					if _, err := cc.write(w, more); err != nil {
						cc.fail(fmt.Errorf("%w: %v", ErrConnectionLost, err))
						return
					}
				default:
					coalescing = false
				}
			}
			if err := w.Flush(); err != nil {
				cc.fail(fmt.Errorf("%w: %v", ErrConnectionLost, err))
				return
			}
		}
	}
}

// write marks the frame's pending entry handed — from here on its bytes
// may reach the server, so a failure must not reissue it — and hands the
// frame to the buffered writer, recycling its buffer. The mark goes
// through the pending map under cc.mu (never a retained pointer): an
// abandoned request's entry is already gone, so its pooled pendingReq
// can never be scribbled on.
func (cc *clientConn) write(w *bufio.Writer, f outFrame) (int, error) {
	cc.mu.Lock()
	if pr, ok := cc.pending[f.id]; ok {
		pr.handed = true
	}
	cc.mu.Unlock()
	n, err := w.Write(f.frame.b)
	putFrame(f.frame)
	return n, err
}

// readLoop demultiplexes response frames to their waiting callers by
// request id. Responses for abandoned requests are dropped; an id-0
// frame is a connection-level server error and terminates the client.
func (cc *clientConn) readLoop() {
	defer cc.wg.Done()
	br := bufio.NewReaderSize(cc.conn, 64<<10)
	var buf []byte // reused: DecodeResponse copies what it keeps
	for {
		body, err := ReadFrame(br, buf)
		buf = body
		if errors.Is(err, io.EOF) {
			cc.fail(fmt.Errorf("%w: connection closed by server", ErrConnectionLost))
			return
		}
		if err != nil {
			cc.fail(fmt.Errorf("%w: %v", ErrConnectionLost, err))
			return
		}
		resp, err := DecodeResponse(body)
		if err != nil {
			cc.fail(fmt.Errorf("sfcd: malformed response: %w", err))
			return
		}
		if resp.ID == 0 {
			cc.fail(&ServerError{Code: resp.Code, Msg: resp.Error})
			return
		}
		// Deliver while holding the lock: a channel receives its response
		// only while its pending entry exists, which is what lets abandon
		// reason about channel ownership without a race. The send never
		// blocks (the channel is buffered and receives exactly one frame).
		cc.mu.Lock()
		if pr, ok := cc.pending[resp.ID]; ok {
			delete(cc.pending, resp.ID)
			pr.ch <- resp
		}
		cc.mu.Unlock()
	}
}

// do issues one request and waits for its response. It applies the
// configured RequestTimeout when ctx carries no deadline, acquires the
// current connection (waiting for one, in failover mode), and runs the
// request against it; the caller's wait is independent of every other
// in-flight request.
//
//sfc:hotpath
func (c *Client) do(ctx context.Context, req *Request) (*Response, error) {
	if c.cfg.RequestTimeout > 0 {
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
			defer cancel()
		}
	}
	for {
		cc, err := c.acquireConn(ctx)
		if err != nil {
			return nil, err
		}
		resp, err := c.doConn(ctx, cc, req)
		if err != nil && c.failover && errors.Is(err, errUnsent) {
			// The frame provably never reached the socket: reissuing on the
			// next connection is exactly-once safe. acquireConn blocks —
			// bounded by ctx — until the redial loop installs one, so this
			// loop never spins against the same dead connection.
			continue
		}
		return resp, err
	}
}

// doConn issues one request on one specific connection: registers the
// request id for demultiplexing and hands the frame to the writer. The
// request's whole lifetime is pinned to cc — if cc dies the op fails
// typed, never silently migrating to a replacement connection.
//
//sfc:hotpath
func (c *Client) doConn(ctx context.Context, cc *clientConn, req *Request) (*Response, error) {
	pr := reqPool.Get().(*pendingReq)
	id, err := cc.register(pr)
	if err != nil {
		reqPool.Put(pr)
		return nil, err
	}
	req.ID = id
	frame := getFrame()
	frame.b = AppendRequest(frame.b, req)
	// The server drops the connection on frames beyond MaxFrameBytes;
	// fail the request with an actionable error instead (split the batch).
	if n := len(frame.b) - 4; n > MaxFrameBytes {
		putFrame(frame)
		cc.abandon(id, pr)
		return nil, fmt.Errorf("sfcd: request frame is %d bytes, server cap is %d: split the batch", n, MaxFrameBytes)
	}
	//sfc:allowclock one clock pair per request is the round-trip histogram's contract: it times every client op exactly
	t0 := time.Now()
	select {
	case cc.writeCh <- outFrame{id: id, frame: frame}:
	case <-ctx.Done():
		putFrame(frame)
		cc.abandon(id, pr)
		return nil, fmt.Errorf("sfcd: %s: %w", req.Op, ctx.Err())
	case <-cc.done:
		// The frame was never even enqueued: provably unsent.
		putFrame(frame)
		cc.abandon(id, pr)
		return nil, fmt.Errorf("%w: %w", errUnsent, cc.terminalErr())
	}
	select {
	case resp := <-pr.ch:
		//sfc:allowclock pairs with the t0 read above; the histogram itself is pre-resolved, not fetched
		c.opLat.observe(req.Op, time.Since(t0))
		reqPool.Put(pr)
		return checkResponse(resp)
	case <-ctx.Done():
		// The response may have raced the cancellation; prefer it.
		if resp, _ := cc.abandon(id, pr); resp != nil {
			//sfc:allowclock pairs with the t0 read above; the histogram itself is pre-resolved, not fetched
			c.opLat.observe(req.Op, time.Since(t0))
			return checkResponse(resp)
		}
		return nil, fmt.Errorf("sfcd: %s: %w", req.Op, ctx.Err())
	case <-cc.done:
		// The response may have been delivered just before the failure —
		// prefer it. Failing that, a frame the writer never picked up died
		// in writeCh: provably unsent, safe to reissue.
		resp, handed := cc.abandon(id, pr)
		if resp != nil {
			//sfc:allowclock pairs with the t0 read above; the histogram itself is pre-resolved, not fetched
			c.opLat.observe(req.Op, time.Since(t0))
			return checkResponse(resp)
		}
		if !handed {
			return nil, fmt.Errorf("%w: %w", errUnsent, cc.terminalErr())
		}
		return nil, cc.terminalErr()
	}
}

// reqPool recycles the per-request demux state (response channel plus the
// handed flag). An entry is returned to the pool only once its request's
// delivery question is settled — the response was received, or abandon
// proved no send (and no handed-mark: the pending entry is gone) can ever
// reach it again.
var reqPool = sync.Pool{New: func() any { return &pendingReq{ch: make(chan *Response, 1)} }}

// checkResponse lifts error frames into *ServerError.
func checkResponse(resp *Response) (*Response, error) {
	if !resp.OK {
		return nil, &ServerError{Code: resp.Code, Msg: resp.Error}
	}
	return resp, nil
}

// Ping checks liveness.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.do(ctx, &Request{Op: OpPing})
	return err
}

// Subscribe stores s on the server, returning its id and the outcome of
// the pre-insert covering query.
func (c *Client) Subscribe(ctx context.Context, s *subscription.Subscription) (sid uint64, covered bool, coveredBy uint64, err error) {
	resp, err := c.do(ctx, &Request{Op: OpSubscribe, sub: s})
	if err != nil {
		return 0, false, 0, err
	}
	if resp.Result == nil {
		return 0, false, 0, errors.New("sfcd: response carries no result")
	}
	return resp.Result.SID, resp.Result.Covered, resp.Result.CoveredBy, nil
}

// SubscribeBatch stores a batch in one round trip. The results align with
// subs; per-item failures are reported in Result.Error.
func (c *Client) SubscribeBatch(ctx context.Context, subs []*subscription.Subscription) ([]Result, error) {
	resp, err := c.do(ctx, &Request{Op: OpSubscribeBatch, subs: subs})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(subs) {
		return nil, fmt.Errorf("sfcd: %d results for %d subscriptions", len(resp.Results), len(subs))
	}
	return resp.Results, nil
}

// Insert stores s without the pre-insert covering query — the
// Provider.Insert path — and returns its id.
func (c *Client) Insert(ctx context.Context, s *subscription.Subscription) (uint64, error) {
	resp, err := c.do(ctx, &Request{Op: OpInsert, sub: s})
	if err != nil {
		return 0, err
	}
	if resp.Result == nil {
		return 0, errors.New("sfcd: response carries no result")
	}
	return resp.Result.SID, nil
}

// Unsubscribe removes the subscription with the given id.
func (c *Client) Unsubscribe(ctx context.Context, sid uint64) error {
	_, err := c.do(ctx, &Request{Op: OpUnsubscribe, SID: sid})
	return err
}

// UnsubscribeBatch removes a batch of ids in one round trip.
func (c *Client) UnsubscribeBatch(ctx context.Context, sids []uint64) ([]Result, error) {
	resp, err := c.do(ctx, &Request{Op: OpUnsubscribeBatch, SIDs: sids})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(sids) {
		return nil, fmt.Errorf("sfcd: %d results for %d ids", len(resp.Results), len(sids))
	}
	return resp.Results, nil
}

// Query asks whether any stored subscription covers s, without storing
// anything.
func (c *Client) Query(ctx context.Context, s *subscription.Subscription) (covered bool, coveredBy uint64, err error) {
	resp, err := c.do(ctx, &Request{Op: OpQuery, sub: s})
	if err != nil {
		return false, 0, err
	}
	if resp.Result == nil {
		return false, 0, errors.New("sfcd: response carries no result")
	}
	return resp.Result.Covered, resp.Result.CoveredBy, nil
}

// QueryBatch runs a batch of covering queries in one round trip.
func (c *Client) QueryBatch(ctx context.Context, subs []*subscription.Subscription) ([]Result, error) {
	resp, err := c.do(ctx, &Request{Op: OpQueryBatch, subs: subs})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(subs) {
		return nil, fmt.Errorf("sfcd: %d results for %d queries", len(resp.Results), len(subs))
	}
	return resp.Results, nil
}

// QueryCovered asks the reverse covering question: does the store hold a
// subscription that s covers? Routers use it at unsubscription time. The
// server answers through the provider's FindCovered, with its guarantees
// (exact mode scans exactly; approximate mode needs TrackCovered and may
// miss but never misreports).
func (c *Client) QueryCovered(ctx context.Context, s *subscription.Subscription) (covered bool, coveredID uint64, err error) {
	resp, err := c.do(ctx, &Request{Op: OpCovered, sub: s})
	if err != nil {
		return false, 0, err
	}
	if resp.Result == nil {
		return false, 0, errors.New("sfcd: response carries no result")
	}
	return resp.Result.Covered, resp.Result.CoveredBy, nil
}

// Subscription resolves a stored id back to its subscription.
func (c *Client) Subscription(ctx context.Context, sid uint64) (*subscription.Subscription, error) {
	resp, err := c.do(ctx, &Request{Op: OpGet, SID: sid})
	if err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, errors.New("sfcd: response carries no result")
	}
	sub, err := subscription.UnmarshalSubscription(c.schema, resp.Result.Payload)
	if err != nil {
		return nil, fmt.Errorf("sfcd: %w", err)
	}
	return sub, nil
}

// Metrics fetches the server counters rendered in the Prometheus text
// exposition format.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, &Request{Op: OpMetrics})
	if err != nil {
		return "", err
	}
	if resp.Metrics == "" {
		return "", errors.New("sfcd: response carries no metrics")
	}
	return resp.Metrics, nil
}

// Promote asks the daemon to flip from follower to primary (a no-op on
// a daemon already serving as primary): it stops the follower's stream,
// hydrates the engine from the durable store and starts serving writes.
func (c *Client) Promote(ctx context.Context) error {
	_, err := c.do(ctx, &Request{Op: OpPromote})
	return err
}

// Match asks whether any stored subscription matches the event — covering
// applied to the event's degenerate point-subscription, with the usual
// guarantee (a reported match is genuine; approximate mode may miss).
func (c *Client) Match(ctx context.Context, e subscription.Event) (matched bool, matchedBy uint64, err error) {
	raw, err := e.MarshalBinary(c.schema)
	if err != nil {
		return false, 0, fmt.Errorf("sfcd: %w", err)
	}
	resp, err := c.do(ctx, &Request{Op: OpMatch, Payload: raw})
	if err != nil {
		return false, 0, err
	}
	if resp.Result == nil {
		return false, 0, errors.New("sfcd: response carries no result")
	}
	return resp.Result.Covered, resp.Result.CoveredBy, nil
}

// Rebalance runs one bounded slice-rebalance pass on the daemon's shared
// engine and reports the boundary moves, migrated entries and
// before/after occupancy skew. Daemons whose engine has no movable
// boundaries (the linear and KD-tree strategies) answer with a
// *ServerError carrying CodeUnsupported.
func (c *Client) Rebalance(ctx context.Context) (RebalanceInfo, error) {
	resp, err := c.do(ctx, &Request{Op: OpRebalance})
	if err != nil {
		return RebalanceInfo{}, err
	}
	if resp.Rebalance == nil {
		return RebalanceInfo{}, errors.New("sfcd: response carries no rebalance outcome")
	}
	return *resp.Rebalance, nil
}

// Snapshot forces a point-in-time snapshot of the daemon's durable
// subscription state (every link namespace — the write-ahead log is
// shared) and compacts the log behind it. Daemons running without a data
// dir answer with a *ServerError carrying CodeUnsupported.
func (c *Client) Snapshot(ctx context.Context) error {
	_, err := c.do(ctx, &Request{Op: OpSnapshot})
	return err
}

// Latency returns a snapshot of the client's round-trip latency
// histograms, keyed by op ("query", "subscribe_batch", "remove", ...).
// The measurement spans enqueue to demultiplexed response, so it folds
// in local queueing, the wire and the server's service time. Use
// obs.Snapshot.Quantile for percentiles and obs.Snapshot.Sub for
// interval deltas.
func (c *Client) Latency() map[string]obs.Snapshot {
	return c.lat.Snapshot()
}

// TraceQuery runs one covering query with server-side tracing forced on
// and returns the outcome alongside the full trace record: per-stage
// timings (decomposition, probe loop, shard fan-out), per-slice probe
// counts and the query's cost stats.
func (c *Client) TraceQuery(ctx context.Context, s *subscription.Subscription) (covered bool, coveredBy uint64, trace *Trace, err error) {
	resp, err := c.do(ctx, &Request{Op: OpTrace, sub: s})
	if err != nil {
		return false, 0, nil, err
	}
	if resp.Result == nil || resp.Trace == nil {
		return false, 0, nil, errors.New("sfcd: response carries no trace")
	}
	return resp.Result.Covered, resp.Result.CoveredBy, resp.Trace, nil
}

// SlowLog fetches the daemon's ring of recent slow-query traces, newest
// first. A daemon running with telemetry off returns an empty batch.
func (c *Client) SlowLog(ctx context.Context) ([]Trace, error) {
	resp, err := c.do(ctx, &Request{Op: OpSlowlog})
	if err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	resp, err := c.do(ctx, &Request{Op: OpStats})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, errors.New("sfcd: response carries no stats")
	}
	return *resp.Stats, nil
}
