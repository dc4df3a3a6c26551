package sfcd

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"sfccover/internal/subscription"
)

// MaxFrameBytes bounds one frame's body (a batch of ~64k subscriptions).
// The server answers a frame declaring more with a connection-level
// bad_request frame naming the limit and closes the connection; the
// client refuses to send one.
const MaxFrameBytes = 8 << 20

// ErrFrameTooLarge reports a frame whose declared length exceeds
// MaxFrameBytes.
var ErrFrameTooLarge = errors.New("sfcd: frame too large")

// errMalformed reports a frame body that does not parse.
var errMalformed = errors.New("malformed frame")

// errUnknownOp reports a request frame whose header parsed but whose op
// byte names no operation.
var errUnknownOp = errors.New("unknown op")

// Op identifies a protocol operation. It travels as one byte in every
// frame header; a response echoes its request's op so the body decodes
// without consulting the request.
type Op uint8

// The protocol's operations. The byte values are the wire format: append
// new ops at the end, never renumber.
const (
	OpPing Op = iota + 1
	OpHello
	OpSubscribe
	OpSubscribeBatch
	OpInsert
	OpUnsubscribe
	OpUnsubscribeBatch
	OpQuery
	OpQueryBatch
	OpCovered
	OpGet
	OpMatch
	OpStats
	OpMetrics
	OpRebalance
	OpSnapshot
	OpUnlink
	OpTrace
	OpSlowlog
	OpReplicate
	OpPromote
	numOps
)

// bodyKind names how a frame body is laid out after the header.
type bodyKind uint8

const (
	bodyEmpty    bodyKind = iota
	bodyPayload           // one payload: the rest of the frame
	bodyPayloads          // uvarint count, then length-prefixed payloads
	bodySID               // uvarint sid
	bodySIDs              // uvarint count, then uvarint sids
	bodyPos               // uvarint stream position
	bodyResult            // one Result
	bodyResults           // uvarint count, then Results
	bodyJSON              // a JSON object of the control fields
	bodyRep               // one RepFrame
)

// opTable is each op's wire name and its request and response body
// layouts.
var opTable = [numOps]struct {
	name      string
	req, resp bodyKind
}{
	OpPing:             {"ping", bodyEmpty, bodyEmpty},
	OpHello:            {"hello", bodyEmpty, bodyJSON},
	OpSubscribe:        {"subscribe", bodyPayload, bodyResult},
	OpSubscribeBatch:   {"subscribe_batch", bodyPayloads, bodyResults},
	OpInsert:           {"insert", bodyPayload, bodyResult},
	OpUnsubscribe:      {"unsubscribe", bodySID, bodyResult},
	OpUnsubscribeBatch: {"unsubscribe_batch", bodySIDs, bodyResults},
	OpQuery:            {"query", bodyPayload, bodyResult},
	OpQueryBatch:       {"query_batch", bodyPayloads, bodyResults},
	OpCovered:          {"covered", bodyPayload, bodyResult},
	OpGet:              {"get", bodySID, bodyResult},
	OpMatch:            {"match", bodyPayload, bodyResult},
	OpStats:            {"stats", bodyEmpty, bodyJSON},
	OpMetrics:          {"metrics", bodyEmpty, bodyJSON},
	OpRebalance:        {"rebalance", bodyEmpty, bodyJSON},
	OpSnapshot:         {"snapshot", bodyEmpty, bodyEmpty},
	OpUnlink:           {"unlink", bodyEmpty, bodyEmpty},
	OpTrace:            {"trace", bodyPayload, bodyJSON},
	OpSlowlog:          {"slowlog", bodyEmpty, bodyJSON},
	OpReplicate:        {"replicate", bodyPos, bodyRep},
	OpPromote:          {"promote", bodyEmpty, bodyJSON},
}

// known reports whether the op names an operation.
func (o Op) known() bool { return o > 0 && o < numOps }

// String returns the op's wire name ("query", "subscribe_batch", ...).
func (o Op) String() string {
	if o.known() {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// frameBuf is one pooled frame buffer: a request frame travelling from
// an encoding caller to the client's writer goroutine, or a request body
// travelling from the server's read loop to a handler.
type frameBuf struct{ b []byte }

// maxPooledFrame keeps the odd multi-megabyte batch frame out of the pool.
const maxPooledFrame = 64 << 10

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrame() *frameBuf { return framePool.Get().(*frameBuf) }

func putFrame(f *frameBuf) {
	if cap(f.b) <= maxPooledFrame {
		f.b = f.b[:0]
		framePool.Put(f)
	}
}

// ReadFrame reads one frame from r and returns its body, reusing buf's
// storage when it is large enough. A frame declaring more than
// MaxFrameBytes fails with ErrFrameTooLarge before its body is read. A
// clean end of stream between frames returns io.EOF; one inside a frame
// returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 0, 512)
	}
	buf = buf[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	n := binary.BigEndian.Uint32(buf)
	if n > MaxFrameBytes {
		return buf[:0], fmt.Errorf("%w: %d-byte frame exceeds the %d-byte limit (MaxFrameBytes)", ErrFrameTooLarge, n, MaxFrameBytes)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return buf[:0], err
	}
	return buf, nil
}

// discardFrame reads and drops one frame, best effort and bounded by
// MaxFrameBytes.
func discardFrame(r io.Reader) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return ErrFrameTooLarge
	}
	_, err := io.CopyN(io.Discard, r, int64(n))
	return err
}

// openFrame appends a length placeholder and the fixed header every
// frame starts with: uvarint id, op byte, link, code. closeFrame patches
// the length once the body is in place.
func openFrame(dst []byte, id uint64, op Op, link, code string) []byte {
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, id)
	dst = append(dst, byte(op))
	dst = appendString(dst, link)
	return appendString(dst, code)
}

func closeFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendSub appends one length-prefixed subscription payload, encoding
// in place behind a one-byte length placeholder. A nil subscription is an
// empty payload.
func appendSub(dst []byte, s *subscription.Subscription) []byte {
	at := len(dst)
	dst = append(dst, 0)
	if s != nil {
		dst = s.AppendBinary(dst)
	}
	return patchLen(dst, at)
}

// patchLen fills the one-byte length placeholder at dst[at] with the
// length of the bytes behind it, widening it (and shifting those bytes)
// when the length needs a longer uvarint.
func patchLen(dst []byte, at int) []byte {
	n := len(dst) - at - 1
	if n < 0x80 {
		dst[at] = byte(n)
		return dst
	}
	var lenBuf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(lenBuf[:], uint64(n))
	dst = append(dst, lenBuf[:k-1]...)
	copy(dst[at+k:], dst[at+1:at+1+n])
	copy(dst[at:], lenBuf[:k])
	return dst
}

// AppendRequest appends req's frame to dst and returns the extended
// slice.
func AppendRequest(dst []byte, req *Request) []byte {
	start := len(dst)
	dst = openFrame(dst, req.ID, req.Op, req.Link, "")
	if !req.Op.known() {
		return closeFrame(dst, start)
	}
	switch opTable[req.Op].req {
	case bodyPayload:
		if req.sub != nil {
			dst = req.sub.AppendBinary(dst)
		} else {
			dst = append(dst, req.Payload...)
		}
	case bodyPayloads:
		if req.subs != nil {
			dst = binary.AppendUvarint(dst, uint64(len(req.subs)))
			for _, s := range req.subs {
				dst = appendSub(dst, s)
			}
		} else {
			dst = binary.AppendUvarint(dst, uint64(len(req.Payloads)))
			for _, p := range req.Payloads {
				dst = appendBytes(dst, p)
			}
		}
	case bodySID:
		dst = binary.AppendUvarint(dst, req.SID)
	case bodySIDs:
		dst = binary.AppendUvarint(dst, uint64(len(req.SIDs)))
		for _, sid := range req.SIDs {
			dst = binary.AppendUvarint(dst, sid)
		}
	case bodyPos:
		dst = binary.AppendUvarint(dst, req.Pos)
	}
	return closeFrame(dst, start)
}

// decodeRequest parses one request frame body into req. Payload and
// Payloads alias body. A header that does not parse, or one carrying a
// response code, leaves req.ID zero: the failure cannot be attributed to
// a request. An op byte naming no operation fails with errUnknownOp once
// the header is in place; its body is not examined.
func decodeRequest(body []byte, req *Request) error {
	r := frameReader{b: body}
	id, op, link, code := r.header()
	if r.err != nil {
		return r.err
	}
	if code != "" {
		return fmt.Errorf("%w: request carries response code %q", errMalformed, code)
	}
	req.ID, req.Op, req.Link = id, op, link
	if !op.known() {
		return fmt.Errorf("%w %s", errUnknownOp, op)
	}
	switch opTable[op].req {
	case bodyPayload:
		req.Payload = r.rest()
	case bodyPayloads:
		if n := r.count(); n > 0 {
			req.Payloads = make([][]byte, n)
			for i := range req.Payloads {
				req.Payloads[i] = r.bytes()
			}
		}
	case bodySID:
		req.SID = r.uvarint()
	case bodySIDs:
		if n := r.count(); n > 0 {
			req.SIDs = make([]uint64, n)
			for i := range req.SIDs {
				req.SIDs[i] = r.uvarint()
			}
		}
	case bodyPos:
		req.Pos = r.uvarint()
	}
	return r.end()
}

// appendResponse appends resp's frame to dst. An error frame's body is
// the error text; an OK frame's body follows the op's layout. Only a
// control reply whose fields JSON cannot encode fails, leaving dst as it
// was.
func appendResponse(dst []byte, resp *Response) ([]byte, error) {
	start := len(dst)
	code := resp.Code
	if resp.OK {
		code = ""
	} else if code == "" {
		// wireerrs rules this out statically; a refusal must never read
		// as success on the other end.
		code = CodeOpFailed
	}
	dst = openFrame(dst, resp.ID, resp.Op, "", code)
	if code != "" {
		dst = append(dst, resp.Error...)
		return closeFrame(dst, start), nil
	}
	if !resp.Op.known() {
		return closeFrame(dst, start), nil
	}
	switch opTable[resp.Op].resp {
	case bodyResult:
		var res Result
		if resp.Result != nil {
			res = *resp.Result
		}
		dst = appendResult(dst, &res)
	case bodyResults:
		dst = binary.AppendUvarint(dst, uint64(len(resp.Results)))
		for i := range resp.Results {
			dst = appendResult(dst, &resp.Results[i])
		}
	case bodyJSON:
		body, err := json.Marshal(resp)
		if err != nil {
			return dst[:start], fmt.Errorf("sfcd: encoding %s reply: %w", resp.Op, err)
		}
		dst = append(dst, body...)
	case bodyRep:
		var f RepFrame
		if resp.Rep != nil {
			f = *resp.Rep
		}
		var flags byte
		if f.Reset {
			flags |= repReset
		}
		if f.More {
			flags |= repMore
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, f.Base)
		dst = binary.AppendUvarint(dst, f.Pos)
		dst = append(dst, f.Recs...)
	}
	return closeFrame(dst, start), nil
}

// RepFrame flag bits.
const (
	repReset = 1 << iota
	repMore
)

func appendResult(dst []byte, r *Result) []byte {
	var covered byte
	if r.Covered {
		covered = 1
	}
	dst = append(dst, covered)
	dst = binary.AppendUvarint(dst, r.SID)
	dst = binary.AppendUvarint(dst, r.CoveredBy)
	dst = appendBytes(dst, r.Payload)
	return appendString(dst, r.Error)
}

// resultResponse is a single-outcome reply; the Response and its Result
// share one allocation.
type resultResponse struct {
	resp Response
	res  Result
}

// okResult builds an OK single-outcome reply in one allocation.
func okResult(res Result) *Response {
	b := &resultResponse{resp: Response{OK: true}, res: res}
	b.resp.Result = &b.res
	return &b.resp
}

// DecodeResponse parses one response frame body. Unlike request decoding
// it copies every byte field out of body, so the caller may reuse body's
// storage for the next frame at once.
func DecodeResponse(body []byte) (*Response, error) {
	r := frameReader{b: body}
	id, op, link, code := r.header()
	if r.err != nil {
		return nil, r.err
	}
	if link != "" {
		return nil, fmt.Errorf("%w: response carries link %q", errMalformed, link)
	}
	if code != "" {
		return &Response{ID: id, Op: op, Code: code, Error: string(r.rest())}, nil
	}
	kind := bodyEmpty
	if op.known() {
		kind = opTable[op].resp
	}
	var resp *Response
	switch kind {
	case bodyResult:
		resp = okResult(r.result())
	case bodyResults:
		resp = &Response{OK: true}
		if n := r.count(); n > 0 {
			resp.Results = make([]Result, n)
			for i := range resp.Results {
				resp.Results[i] = r.result()
			}
		}
	case bodyJSON:
		resp = &Response{OK: true}
		if err := json.Unmarshal(r.rest(), resp); err != nil {
			return nil, fmt.Errorf("%w: %s reply: %v", errMalformed, op, err)
		}
	case bodyRep:
		resp = &Response{OK: true, Rep: r.rep()}
	default:
		resp = &Response{OK: true}
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	resp.ID, resp.Op = id, op
	return resp, nil
}

// frameReader consumes a frame body field by field. The first failure
// sticks: later reads return zero values, and end reports it.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errMalformed, what)
	}
	r.b = nil
}

// header reads the fixed frame header.
func (r *frameReader) header() (id uint64, op Op, link, code string) {
	id = r.uvarint()
	op = Op(r.byte())
	link = string(r.bytes())
	code = string(r.bytes())
	return id, op, link, code
}

// uvarint reads one canonically encoded uvarint: the overlong encodings
// binary.Uvarint tolerates are rejected, so every accepted frame has one
// byte form.
func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *frameReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// bytes reads one length-prefixed field, aliasing the body; an empty
// field reads as nil.
func (r *frameReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("field overruns the frame")
		return nil
	}
	if n == 0 {
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// count reads an item count. Every item takes at least one byte, so a
// count beyond the bytes remaining is malformed — the bound that keeps a
// hostile count from sizing an allocation.
func (r *frameReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("count overruns the frame")
		return 0
	}
	return int(n)
}

// rest consumes the remainder of the body, nil when empty.
func (r *frameReader) rest() []byte {
	if r.err != nil || len(r.b) == 0 {
		return nil
	}
	b := r.b
	r.b = nil
	return b
}

// result reads one Result, copying its payload.
func (r *frameReader) result() Result {
	var res Result
	switch r.byte() {
	case 0:
	case 1:
		res.Covered = true
	default:
		r.fail("bad covered flag")
	}
	res.SID = r.uvarint()
	res.CoveredBy = r.uvarint()
	if p := r.bytes(); p != nil {
		res.Payload = append([]byte(nil), p...)
	}
	res.Error = string(r.bytes())
	return res
}

// rep reads one RepFrame, copying its records.
func (r *frameReader) rep() *RepFrame {
	flags := r.byte()
	if flags&^(repReset|repMore) != 0 {
		r.fail("bad rep flags")
	}
	f := &RepFrame{Reset: flags&repReset != 0, More: flags&repMore != 0}
	f.Base = r.uvarint()
	f.Pos = r.uvarint()
	if recs := r.rest(); recs != nil {
		f.Recs = append([]byte(nil), recs...)
	}
	return f
}

// end reports the sticky failure, or trailing bytes no field consumed.
func (r *frameReader) end() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.b)))
	}
	return r.err
}
