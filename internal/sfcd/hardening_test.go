package sfcd

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/engine"
	"sfccover/internal/subscription"
)

// startHardenedServer boots a daemon with the given hardening knobs.
func startHardenedServer(t *testing.T, schema *subscription.Schema, scfg ServerConfig) string {
	t.Helper()
	eng := engine.MustNew(engine.Config{
		Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: core.StrategyLinear},
		Shards:   2,
		Workers:  2,
	})
	srv := NewServerWith(eng, scfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return addr.String()
}

// TestMaxConnsRefusesCleanly pins the connection limit: the over-limit
// dial is answered with one clean connection-level error frame (code
// conn_limit) instead of a silent drop, and the slot is reusable once a
// connection leaves.
func TestMaxConnsRefusesCleanly(t *testing.T) {
	schema := coretest.Schema()
	addr := startHardenedServer(t, schema, ServerConfig{MaxConns: 1})

	c1, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	_, err = Dial(addr, schema)
	if err == nil {
		t.Fatal("dial beyond MaxConns must fail")
	}
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeConnLimit {
		t.Fatalf("refused dial error = %v, want a ServerError with code %q", err, CodeConnLimit)
	}

	// Releasing the held connection frees the slot (the server drops it
	// asynchronously, so poll briefly).
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := Dial(addr, schema)
		if err == nil {
			c2.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after close: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadTimeoutReapsIdleConn pins the per-request read timeout: a
// connection that goes quiet past the deadline is reaped — observable as
// EOF on the raw connection — while an active connection is unaffected
// because every served request re-arms the deadline.
func TestReadTimeoutReapsIdleConn(t *testing.T) {
	schema := coretest.Schema()
	addr := startHardenedServer(t, schema, ServerConfig{ReadTimeout: 150 * time.Millisecond})

	// An active client outlives many timeout windows.
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Ping(bg); err != nil {
			t.Fatalf("active connection reaped at ping %d: %v", i, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// A raw connection that stalls after one request is reaped: the next
	// read returns EOF well before the test deadline.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(AppendRequest(nil, &Request{ID: 1, Op: OpPing})); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(conn, nil); err != nil {
		t.Fatalf("no ping response: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, io.EOF) == false && !isClosedNetErr(err) {
		t.Fatalf("stalled connection read = %v, want EOF (reaped)", err)
	}

	// The idle client from above has also been reaped by now.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Ping(bg); err != nil {
			if !errors.Is(err, ErrConnectionLost) {
				t.Fatalf("reaped client error = %v, want ErrConnectionLost", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle pipelined client never reaped")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// isClosedNetErr reports a connection-reset style error, which some
// platforms yield instead of EOF when the server closes mid-read.
func isClosedNetErr(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return !ne.Timeout()
	}
	return errors.Is(err, net.ErrClosed)
}

// TestDialTimeoutAgainstMuteEndpoint pins that a daemon that accepts but
// never answers cannot hang Dial: the configured timeout fires.
func TestDialTimeoutAgainstMuteEndpoint(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, answer nothing
		}
	}()
	start := time.Now()
	_, err = DialContext(context.Background(), DialConfig{
		Addr:        ln.Addr().String(),
		Schema:      coretest.Schema(),
		DialTimeout: 200 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dial against a mute endpoint must fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mute dial error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial took %v, timeout did not bound it", elapsed)
	}
}

// TestClientDoubleClose pins the specified double-Close outcome: the
// first Close returns nil, every later one is rejected with the typed
// ErrClientClosed — recovery code that tears a client down twice gets a
// diagnosis, not unspecified behavior.
func TestClientDoubleClose(t *testing.T) {
	schema := subscription.MustSchema(8, "x", "y")
	addr := startHardenedServer(t, schema, ServerConfig{})
	c, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first Close = %v, want nil", err)
	}
	if err := c.Close(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("second Close = %v, want ErrClientClosed", err)
	}
	if err := c.Ping(context.Background()); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Ping after Close = %v, want ErrClientClosed", err)
	}
}

// TestRefuseSlowLorisDoesNotStallAccept pins that over-limit refusals
// run off the accept loop: a herd of mute over-limit dialers — each
// entitled to the refusal path's bounded first-line wait — must not
// serialize behind one another, stall the served connection, or delay a
// well-behaved dialer's conn_limit answer. Before refusals became
// asynchronous, each mute connection held the accept loop for its full
// wait, so the herd added tens of seconds of accept latency.
func TestRefuseSlowLorisDoesNotStallAccept(t *testing.T) {
	schema := coretest.Schema()
	addr := startHardenedServer(t, schema, ServerConfig{MaxConns: 1})

	c1, err := Dial(addr, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// 25 over-limit connections that never write a byte. Serialized
	// 1s-per-connection refusals would take 25s; the test allows 5.
	const herd = 25
	mutes := make([]net.Conn, 0, herd)
	defer func() {
		for _, m := range mutes {
			m.Close()
		}
	}()
	for i := 0; i < herd; i++ {
		m, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		mutes = append(mutes, m)
	}

	// The served connection keeps answering while the herd pends.
	if err := c1.Ping(bg); err != nil {
		t.Fatalf("served connection stalled by refusal herd: %v", err)
	}

	// A well-behaved over-limit dialer gets its typed refusal promptly:
	// Dial sends hello immediately, so the refusal path answers without
	// waiting out its first-line deadline — unless it is stuck in line
	// behind the mutes.
	start := time.Now()
	_, err = Dial(addr, schema)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeConnLimit {
		t.Fatalf("over-limit dial error = %v, want ServerError code %q", err, CodeConnLimit)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("refusal took %v, herd serialized the refusal path", elapsed)
	}

	if err := c1.Ping(bg); err != nil {
		t.Fatalf("served connection unhealthy after refusal storm: %v", err)
	}
}
