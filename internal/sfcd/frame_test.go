package sfcd

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sfccover/internal/persist"
	"sfccover/internal/subscription"
)

// update rewrites the golden frames from the encoders:
//
//	go test ./internal/sfcd -run TestGoldenFrames -update
var update = flag.Bool("update", false, "rewrite testdata/frames from the encoders")

// goldenCase is one op's representative request and response.
type goldenCase struct {
	name string
	req  Request
	resp Response
}

// goldenCases builds one request/response pair per op, plus the two
// error-frame shapes: a refusal under a request id and a
// connection-level (id 0) frame.
func goldenCases(tb testing.TB) []goldenCase {
	tb.Helper()
	schema := subscription.MustSchema(10, "volume", "price")
	pay := func(expr string) []byte {
		raw, err := subscription.MustParse(schema, expr).MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		return raw
	}
	p1, p2 := pay("volume in [1,5] && price <= 300"), pay("price >= 700")
	ev, err := subscription.Event{3, 250}.MarshalBinary(schema)
	if err != nil {
		tb.Fatal(err)
	}
	recs := persist.EncodeRecords([]persist.Record{
		{Link: "b0-n1", SID: 41, Payload: p1},
		{Remove: true, SID: 17},
	})
	trace := Trace{
		Op: "query", StartUnixNS: 1700000000000000000, TotalNS: 2800,
		Stages: []TraceStage{{Name: "decompose", DurNS: 900, Count: 12}, {Name: "probes", DurNS: 1500, Count: 4}},
		Slices: []int{1, 0, 3, 0},
		Cost:   TraceCost{M: 2, CubesGenerated: 12, RunsProbed: 4, VolumeFraction: 0.75, AspectRatio: 1, Found: true},
	}
	res := func(r Result) *Result { return &r }
	return []goldenCase{
		{"ping", Request{ID: 1, Op: OpPing}, Response{ID: 1, Op: OpPing, OK: true}},
		{"hello", Request{ID: 1, Op: OpHello}, Response{ID: 1, Op: OpHello, OK: true,
			Bits: 10, Attrs: []string{"volume", "price"}, Shards: 4, Mode: "approx", Role: RolePrimary}},
		{"subscribe", Request{ID: 2, Op: OpSubscribe, Link: "b0-n1", Payload: p1},
			Response{ID: 2, Op: OpSubscribe, OK: true, Result: res(Result{SID: 41, Covered: true, CoveredBy: 17})}},
		{"subscribe_batch", Request{ID: 3, Op: OpSubscribeBatch, Payloads: [][]byte{p1, p2}},
			Response{ID: 3, Op: OpSubscribeBatch, OK: true, Results: []Result{{SID: 42}, {Error: "subscription: payload too short (0 bytes)"}}}},
		{"insert", Request{ID: 4, Op: OpInsert, Payload: p2},
			Response{ID: 4, Op: OpInsert, OK: true, Result: res(Result{SID: 43})}},
		{"unsubscribe", Request{ID: 5, Op: OpUnsubscribe, SID: 41},
			Response{ID: 5, Op: OpUnsubscribe, OK: true, Result: res(Result{SID: 41})}},
		{"unsubscribe_batch", Request{ID: 6, Op: OpUnsubscribeBatch, SIDs: []uint64{41, 300}},
			Response{ID: 6, Op: OpUnsubscribeBatch, OK: true, Results: []Result{{SID: 41}, {SID: 300, Error: "no subscription with id 300"}}}},
		{"query", Request{ID: 7, Op: OpQuery, Payload: p1},
			Response{ID: 7, Op: OpQuery, OK: true, Result: res(Result{Covered: true, CoveredBy: 17})}},
		{"query_batch", Request{ID: 8, Op: OpQueryBatch, Link: "b1", Payloads: [][]byte{p1, p2}},
			Response{ID: 8, Op: OpQueryBatch, OK: true, Results: []Result{{Covered: true, CoveredBy: 17}, {}}}},
		{"covered", Request{ID: 9, Op: OpCovered, Payload: p2},
			Response{ID: 9, Op: OpCovered, OK: true, Result: res(Result{})}},
		{"get", Request{ID: 10, Op: OpGet, SID: 17},
			Response{ID: 10, Op: OpGet, OK: true, Result: res(Result{SID: 17, Payload: p1})}},
		{"match", Request{ID: 11, Op: OpMatch, Payload: ev},
			Response{ID: 11, Op: OpMatch, OK: true, Result: res(Result{Covered: true, CoveredBy: 17})}},
		{"stats", Request{ID: 12, Op: OpStats}, Response{ID: 12, Op: OpStats, OK: true, Stats: &Stats{
			Queries: 9, Hits: 4, RunsProbed: 31, CubesGenerated: 80, ShardSearches: 9, DecompCacheHits: 5, DecompCacheMisses: 4,
			Subscriptions: 3, ShardSizes: []int{1, 2}, MaxShardSize: 2, MinShardSize: 1, SkewRatio: 2}}},
		{"metrics", Request{ID: 13, Op: OpMetrics}, Response{ID: 13, Op: OpMetrics, OK: true,
			Metrics: "# TYPE sfcd_queries_total counter\nsfcd_queries_total 9\n"}},
		{"rebalance", Request{ID: 14, Op: OpRebalance}, Response{ID: 14, Op: OpRebalance, OK: true,
			Rebalance: &RebalanceInfo{Moves: 2, Migrated: 40, SkewBefore: 3.5, SkewAfter: 1.25}}},
		{"snapshot", Request{ID: 15, Op: OpSnapshot}, Response{ID: 15, Op: OpSnapshot, OK: true}},
		{"unlink", Request{ID: 16, Op: OpUnlink, Link: "b0-n1"}, Response{ID: 16, Op: OpUnlink, OK: true}},
		{"trace", Request{ID: 17, Op: OpTrace, Payload: p1}, Response{ID: 17, Op: OpTrace, OK: true,
			Result: res(Result{Covered: true, CoveredBy: 17}), Trace: &trace}},
		{"slowlog", Request{ID: 18, Op: OpSlowlog}, Response{ID: 18, Op: OpSlowlog, OK: true, Traces: []Trace{trace}}},
		{"replicate", Request{ID: 19, Op: OpReplicate, Pos: 7},
			Response{ID: 19, Op: OpReplicate, OK: true, Rep: &RepFrame{Base: 7, Pos: 9, Recs: recs}}},
		{"promote", Request{ID: 20, Op: OpPromote}, Response{ID: 20, Op: OpPromote, OK: true, Role: RolePrimary}},
		{"refusal", Request{ID: 21, Op: OpQuery, Payload: []byte("!!!")},
			Response{ID: 21, Op: OpQuery, Code: CodeBadRequest, Error: "subscription: decoding subscription: unexpected payload type 0x21"}},
		{"conn_limit", Request{ID: 22, Op: OpHello},
			Response{Code: CodeConnLimit, Error: "connection limit 2 reached"}},
	}
}

// goldenFrames encodes a case's request and response frames.
func goldenFrames(tb testing.TB, c *goldenCase) (req, resp []byte) {
	tb.Helper()
	resp, err := appendResponse(nil, &c.resp)
	if err != nil {
		tb.Fatalf("%s: %v", c.name, err)
	}
	return AppendRequest(nil, &c.req), resp
}

// TestGoldenFrames pins the wire format: every op's request and response
// frame must match its checked-in fixture byte for byte, and every
// fixture must decode back to the value it was encoded from.
func TestGoldenFrames(t *testing.T) {
	dir := filepath.Join("testdata", "frames")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	covered := map[Op]bool{}
	for _, c := range goldenCases(t) {
		covered[c.req.Op] = true
		reqFrame, respFrame := goldenFrames(t, &c)
		for _, f := range []struct {
			kind  string
			frame []byte
		}{{"request", reqFrame}, {"response", respFrame}} {
			path := filepath.Join(dir, c.name+"."+f.kind+".hex")
			if *update {
				if err := os.WriteFile(path, []byte(hexLines(f.frame)), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			want, err := hex.DecodeString(strings.Join(strings.Fields(string(golden)), ""))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if !bytes.Equal(f.frame, want) {
				t.Errorf("%s: encoder output differs from the fixture\n got: %x\nwant: %x", path, f.frame, want)
			}
		}

		body, err := ReadFrame(bytes.NewReader(reqFrame), nil)
		if err != nil {
			t.Fatalf("%s request: %v", c.name, err)
		}
		var req Request
		if err := decodeRequest(body, &req); err != nil {
			t.Fatalf("%s request: %v", c.name, err)
		}
		if !reflect.DeepEqual(req, c.req) {
			t.Errorf("%s request decodes to %+v, want %+v", c.name, req, c.req)
		}
		body, err = ReadFrame(bytes.NewReader(respFrame), nil)
		if err != nil {
			t.Fatalf("%s response: %v", c.name, err)
		}
		resp, err := DecodeResponse(body)
		if err != nil {
			t.Fatalf("%s response: %v", c.name, err)
		}
		if !reflect.DeepEqual(*resp, c.resp) {
			t.Errorf("%s response decodes to %+v, want %+v", c.name, *resp, c.resp)
		}
	}
	for op := OpPing; op < numOps; op++ {
		if !covered[op] {
			t.Errorf("op %s has no golden frame", op)
		}
	}
}

// hexLines renders a frame as hex, 32 bytes per line.
func hexLines(b []byte) string {
	var sb strings.Builder
	for len(b) > 0 {
		n := min(len(b), 32)
		sb.WriteString(hex.EncodeToString(b[:n]))
		sb.WriteByte('\n')
		b = b[n:]
	}
	return sb.String()
}

// TestPatchLenWidens covers the in-place length prefix: whatever the
// payload length, patching the one-byte placeholder must produce the same
// bytes as a plain length-prefixed append.
func TestPatchLenWidens(t *testing.T) {
	for _, n := range []int{0, 1, 0x7f, 0x80, 300, 20000} {
		payload := bytes.Repeat([]byte{0xab}, n)
		got := patchLen(append([]byte{9, 0}, payload...), 1)
		want := appendBytes([]byte{9}, payload)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte payload: patched %x, want %x", n, got[:min(len(got), 8)], want[:min(len(want), 8)])
		}
	}
}

// TestInPlaceBatchEncoding pins that a batch encoded straight from
// subscriptions frames exactly like the same batch of raw payloads.
func TestInPlaceBatchEncoding(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	sub := subscription.MustParse(schema, "volume in [1,5] && price <= 300")
	raw, err := sub.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := AppendRequest(nil, &Request{ID: 1, Op: OpQueryBatch, subs: []*subscription.Subscription{sub, nil, sub}})
	want := AppendRequest(nil, &Request{ID: 1, Op: OpQueryBatch, Payloads: [][]byte{raw, nil, raw}})
	if !bytes.Equal(got, want) {
		t.Fatalf("in-place batch encoding differs from the raw one\n got: %x\nwant: %x", got, want)
	}
}

// queryCodecAllocs is the allocation ceiling of one covering query's
// four codec steps — client request encode, server request decode,
// server response encode, client response decode — with warm buffers.
// The one allocation is the decoded Response, which shares its Result.
const queryCodecAllocs = 1

// TestQueryCodecAllocs keeps a codec regression a tier-1 failure, not
// only a benchmark delta.
func TestQueryCodecAllocs(t *testing.T) {
	schema := subscription.MustSchema(10, "volume", "price")
	sub := subscription.MustParse(schema, "volume in [1,5] && price <= 300")
	served := &Response{ID: 7, Op: OpQuery, OK: true, Result: &Result{Covered: true, CoveredBy: 17}}
	var reqFrame, respFrame []byte
	var req Request
	var resp *Response
	allocs := testing.AllocsPerRun(1000, func() {
		reqFrame = AppendRequest(reqFrame[:0], &Request{ID: 7, Op: OpQuery, sub: sub})
		req = Request{}
		if err := decodeRequest(reqFrame[4:], &req); err != nil {
			t.Fatal(err)
		}
		var err error
		if respFrame, err = appendResponse(respFrame[:0], served); err != nil {
			t.Fatal(err)
		}
		if resp, err = DecodeResponse(respFrame[4:]); err != nil {
			t.Fatal(err)
		}
	})
	if !resp.Result.Covered || resp.Result.CoveredBy != 17 || req.Op != OpQuery {
		t.Fatalf("round trip lost the query: req %+v resp %+v", req, resp)
	}
	if allocs > queryCodecAllocs {
		t.Fatalf("one query's codec steps allocate %.1f times, ceiling is %d", allocs, queryCodecAllocs)
	}
}

// FuzzFrameDecode hardens both decoders against arbitrary bytes: no
// panic, no count larger than the bytes that carry it, and whatever
// decodes re-encodes to the identical bytes (a control reply's JSON body
// re-encodes to a fixed point instead: JSON has many spellings of one
// value).
func FuzzFrameDecode(f *testing.F) {
	for _, c := range goldenCases(f) {
		req, resp := goldenFrames(f, &c)
		f.Add(req[4:])
		f.Add(resp[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, body []byte) {
		if _, err := ReadFrame(bytes.NewReader(body), nil); err != nil && !errors.Is(err, io.EOF) &&
			!errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("ReadFrame failed oddly: %v", err)
		}

		var req Request
		if err := decodeRequest(body, &req); err == nil {
			if len(req.Payloads) > len(body) || len(req.SIDs) > len(body) {
				t.Fatalf("decoded %d payloads and %d sids from %d bytes", len(req.Payloads), len(req.SIDs), len(body))
			}
			if re := AppendRequest(nil, &req); !bytes.Equal(re[4:], body) {
				t.Fatalf("request %+v re-encodes to %x, decoded from %x", req, re[4:], body)
			}
		}

		resp, err := DecodeResponse(body)
		if err != nil {
			return
		}
		if len(resp.Results) > len(body) {
			t.Fatalf("decoded %d results from %d bytes", len(resp.Results), len(body))
		}
		re, err := appendResponse(nil, resp)
		if err != nil {
			t.Fatalf("decoded response %+v does not re-encode: %v", resp, err)
		}
		if resp.OK && resp.Op.known() && opTable[resp.Op].resp == bodyJSON {
			again, err := DecodeResponse(re[4:])
			if err != nil {
				t.Fatalf("re-encoded control reply does not decode: %v", err)
			}
			fixed, err := appendResponse(nil, again)
			if err != nil || !bytes.Equal(fixed, re) {
				t.Fatalf("control reply re-encoding is not a fixed point: %x then %x (%v)", re, fixed, err)
			}
			return
		}
		if !bytes.Equal(re[4:], body) {
			t.Fatalf("response %+v re-encodes to %x, decoded from %x", resp, re[4:], body)
		}
	})
}
