// Package sfcd turns the sharded detection engine into a network service:
// a length-prefixed binary frame protocol over TCP, carrying
// subscriptions and events in their binary wire format, plus a pipelined
// client and a core.Provider implementation over it. One daemon serves
// many routers; batch operations map directly onto the engine's
// AddBatch/RemoveBatch/CoverQueryBatch so a single request frame can
// amortize the round trip over hundreds of covering queries, and the
// pipelined client overlaps independent requests on one connection so
// that N concurrent callers never serialize on the wire.
//
// Framing: every frame is a big-endian u32 body length (at most
// MaxFrameBytes) followed by the body. The body opens with a fixed
// header — uvarint id, one op byte (see Op), then the link and the code,
// each a uvarint length and that many bytes — and continues with the
// op's hand-encoded fields. Requests carry an empty code, responses an
// empty link. A response with a non-empty code is an error frame whose
// remaining body is the human-readable error text; an OK response's body
// depends on its op:
//
//	request                                response (OK)
//	subscribe, insert, query, covered,     one result: covered byte,
//	match, trace: the payload (the rest    uvarint sid, uvarint coveredBy,
//	of the body)                           length-prefixed payload and error
//	subscribe_batch, query_batch: uvarint  uvarint count, then that many
//	count, length-prefixed payloads        results
//	unsubscribe, get: uvarint sid          one result
//	unsubscribe_batch: count, uvarint sids count, then results
//	replicate: uvarint stream position     RepFrames: flags byte (reset,
//	                                       more), uvarint base, uvarint
//	                                       pos, then the records
//	everything else: empty                 ping, snapshot, unlink: empty;
//	                                       hello, promote, stats, metrics,
//	                                       trace, slowlog, rebalance: a
//	                                       JSON object of the reply fields
//
// Payloads are the raw bytes of internal/subscription's wire encoding;
// replication records are persist.EncodeRecords bytes. Varints must be
// minimally encoded and counts can never exceed the bytes that remain,
// so every accepted frame has exactly one byte form. The encoders are
// AppendRequest and the server's response encoder; ReadFrame and
// DecodeResponse read the other direction. testdata/frames pins one
// request and one response per op.
//
// Every request carries a client-chosen non-zero id and the server
// answers each request with one response frame echoing that id and op.
// Responses may arrive OUT OF ORDER — the server handles a connection's
// requests concurrently — so clients demultiplex by id. A response with
// id 0 that no request asked for is a connection-level error frame (the
// connection limit was hit, a frame declared more than MaxFrameBytes, a
// header did not parse); the connection is closed after it. A request
// whose header parses but whose body does not is answered with a
// bad_request frame under its own id.
//
// Operations: hello, ping, subscribe, subscribe_batch, insert,
// unsubscribe, unsubscribe_batch, query, query_batch, covered, get,
// match, stats, metrics, rebalance, snapshot, unlink, trace, slowlog,
// replicate, promote.
//
// "replicate" opens the replication stream: the caller (a follower
// daemon) sends its applied stream position and the server answers with
// an unbounded sequence of response frames — each carrying one RepFrame —
// until the stream ends with an error response. It is the one streaming
// op in an otherwise request/response protocol; see RepFrame for the
// catch-up/reset semantics. "promote" flips a read-only follower to
// primary once it has drained its stream (idempotent on a primary).
// Daemons running without a data dir answer both with code
// "unsupported"; a follower answers every state-touching op with code
// "not_primary" until promoted.
//
// "trace" runs one covering query with tracing forced on and returns the
// full trace record: per-stage timings (decomposition, probe loop, shard
// fan-out), per-slice probe counts and the query's cost stats. "slowlog"
// returns the daemon's ring of recent slow-query traces. Both address
// the shared engine only; link namespaces answer with code
// "unsupported".
//
// "snapshot" forces a point-in-time snapshot of the daemon's durable
// subscription state (all link namespaces — the write-ahead log is
// shared) and compacts the log behind it. Daemons running without a data
// dir answer with code "unsupported".
//
// "rebalance" runs one bounded slice-rebalance pass on the addressed
// provider (SFC-strategy engines only; other configurations answer
// with code "unsupported") and reports the boundary moves, migrated
// entries and before/after occupancy skew.
//
// "insert" stores a subscription without the pre-insert covering query
// (the Provider.Insert path); "get" resolves a sid back to its stored
// subscription payload. "covered" is the reverse covering query (engine
// FindCovered): does the store hold a subscription that the payload
// covers? Routers call it at unsubscription time to decide which
// suppressed subscriptions must be re-forwarded. "metrics" renders the
// stats counters in the Prometheus text exposition format.
//
// "match" answers event delivery: an event e is a degenerate subscription
// constraining every attribute to exactly its value, so "does any stored
// subscription match e" is precisely "is that point-subscription covered",
// and the engine's covering machinery answers it with the usual guarantee
// (a reported match is genuine; approximate mode may miss).
//
// Link namespaces: every request's link field may name an
// isolated subscription namespace on the daemon. The empty link is the
// shared engine; any other link lazily materializes its own index built
// from the engine's detector template, and "unlink" tears it down. This
// is what lets one shared daemon back every broker link of an overlay:
// each link's forwarded set stays independent while all of them share one
// process, one connection and one schema.
package sfcd

import "sfccover/internal/subscription"

// Request is one protocol request frame.
type Request struct {
	// ID is echoed in the response; clients pipeline many requests and
	// demultiplex responses by it. IDs must be unique among a connection's
	// in-flight requests and must be non-zero (0 is reserved for
	// connection-level error frames).
	ID uint64
	// Op selects the operation.
	Op Op
	// Link selects the subscription namespace; empty is the shared engine.
	Link string
	// Payload carries one binary subscription (subscribe, insert, query,
	// covered, trace) or event (match). A decoded request's payloads
	// alias the frame they were read from.
	Payload []byte
	// Payloads carries a batch of binary subscriptions.
	Payloads [][]byte
	// SID identifies a subscription to unsubscribe or get.
	SID uint64
	// SIDs identifies a batch of subscriptions to unsubscribe.
	SIDs []uint64
	// Pos is the replicate op's resume point: the follower's applied
	// stream position (0 = from the beginning).
	Pos uint64

	// sub and subs let the client encode subscriptions straight into the
	// request frame instead of marshalling Payload/Payloads first; when
	// set they take their place (a nil entry in subs is an empty payload).
	sub  *subscription.Subscription
	subs []*subscription.Subscription
}

// Result is one per-item outcome inside a batch response.
type Result struct {
	// SID is the id assigned by subscribe/insert operations.
	SID uint64 `json:"sid,omitempty"`
	// Covered reports whether a cover (or match) was found; CoveredBy is
	// the id of the covering subscription.
	Covered   bool   `json:"covered,omitempty"`
	CoveredBy uint64 `json:"coveredBy,omitempty"`
	// Payload is the binary subscription returned by get.
	Payload []byte `json:"payload,omitempty"`
	// Error is the per-item failure, empty on success.
	Error string `json:"error,omitempty"`
}

// Stats is the counter snapshot returned by the stats operation: the
// provider's logical totals plus occupancy, per link namespace.
type Stats struct {
	Queries        int `json:"queries"`
	Hits           int `json:"hits"`
	RunsProbed     int `json:"runsProbed"`
	CubesGenerated int `json:"cubesGenerated"`
	ShardSearches  int `json:"shardSearches"`
	// DecompCacheHits/DecompCacheMisses are the decomposition cache's
	// lifetime counters across the provider's SFC indexes (always zero
	// when the cache is disabled or the strategy has no SFC index).
	DecompCacheHits   uint64 `json:"decompCacheHits,omitempty"`
	DecompCacheMisses uint64 `json:"decompCacheMisses,omitempty"`
	// Subscriptions is the number of currently held subscriptions.
	Subscriptions int `json:"subscriptions"`
	// ShardSizes is the per-shard subscription count.
	ShardSizes []int `json:"shardSizes"`
	// MaxShardSize/MinShardSize/SkewRatio summarize slice-occupancy
	// balance; SkewRatio is max/min with the denominator clamped to 1, so
	// curve-prefix skew is observable before rebalancing.
	MaxShardSize int     `json:"maxShardSize"`
	MinShardSize int     `json:"minShardSize"`
	SkewRatio    float64 `json:"skewRatio"`
	// Rebalances/BoundaryMoves/MigratedEntries count what the online
	// rebalancer has done so far (always zero on providers without the
	// capability).
	Rebalances      int `json:"rebalances,omitempty"`
	BoundaryMoves   int `json:"boundaryMoves,omitempty"`
	MigratedEntries int `json:"migratedEntries,omitempty"`
	// Snapshots/WALRecords/WALBytes describe the durability layer: store-
	// wide snapshot count and lifetime log appends (always zero on daemons
	// running without a data dir).
	Snapshots  int   `json:"snapshots,omitempty"`
	WALRecords int   `json:"walRecords,omitempty"`
	WALBytes   int64 `json:"walBytes,omitempty"`
}

// RebalanceInfo is the outcome of a rebalance operation.
type RebalanceInfo struct {
	// Moves is the number of boundary moves the pass performed; Migrated
	// the number of index entries that crossed a boundary.
	Moves    int `json:"moves"`
	Migrated int `json:"migrated"`
	// SkewBefore/SkewAfter bracket the pass with the occupancy skew ratio.
	SkewBefore float64 `json:"skewBefore"`
	SkewAfter  float64 `json:"skewAfter"`
}

// Error codes carried by error frames (Response.Code). The code
// classifies the failure mechanically so clients can react without
// parsing the human-readable Error text.
const (
	// CodeBadRequest marks a request the server could not parse or decode.
	CodeBadRequest = "bad_request"
	// CodeUnknownOp marks an unrecognized operation.
	CodeUnknownOp = "unknown_op"
	// CodeConnLimit marks a connection refused by the -max-conns limit;
	// it arrives in a connection-level frame (id 0) and the connection is
	// closed after it.
	CodeConnLimit = "conn_limit"
	// CodeOpFailed marks an operation the provider rejected (unknown sid,
	// schema trouble, mode restrictions).
	CodeOpFailed = "op_failed"
	// CodeUnsupported marks an operation the addressed provider has no
	// capability for (rebalance on a linear or KD-tree engine, or on a
	// detector-backed namespace).
	CodeUnsupported = "unsupported"
	// CodeNotPrimary marks an operation refused because the daemon is a
	// read-only follower still draining a primary's replication stream;
	// clients should fail over to the (possibly newly promoted) primary.
	CodeNotPrimary = "not_primary"
)

// Role values carried in hello/promote responses (Response.Role).
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// Response is one protocol response frame. Data-op outcomes (Result,
// Results, Rep) travel hand-encoded; the remaining fields are the control
// replies' fields and travel as the JSON body of hello, promote, stats,
// metrics, trace, slowlog and rebalance frames, under their json tags.
type Response struct {
	// ID echoes the request id; 0 marks a connection-level error frame.
	ID uint64 `json:"-"`
	// Op echoes the request op (0 on connection-level frames); it selects
	// the body layout.
	Op Op `json:"-"`
	// OK reports whether the request succeeded; on failure Error explains
	// and Code classifies.
	OK    bool   `json:"-"`
	Error string `json:"-"`
	Code  string `json:"-"`

	// hello fields.
	Bits   int      `json:"bits,omitempty"`
	Attrs  []string `json:"attrs,omitempty"`
	Shards int      `json:"shards,omitempty"`
	Mode   string   `json:"mode,omitempty"`
	// Role reports "primary" or "follower" in hello (and promote)
	// responses. Empty on daemons predating replication, which clients
	// treat as primary.
	Role string `json:"role,omitempty"`

	// Single-operation outcome (subscribe, insert, query, covered, get,
	// match, unsubscribe; trace carries it in its JSON body).
	Result *Result `json:"result,omitempty"`
	// Batch outcomes, aligned with the request's payloads/sids.
	Results []Result `json:"-"`
	// Stats snapshot (stats op).
	Stats *Stats `json:"stats,omitempty"`
	// Metrics is the Prometheus text exposition (metrics op).
	Metrics string `json:"metrics,omitempty"`
	// Rebalance is the rebalance operation's outcome.
	Rebalance *RebalanceInfo `json:"rebalance,omitempty"`
	// Trace is the trace operation's record; Traces is the slowlog
	// operation's batch (newest first).
	Trace  *Trace  `json:"trace,omitempty"`
	Traces []Trace `json:"traces,omitempty"`
	// Rep is one replication stream frame (replicate op only). The op is
	// the protocol's single streaming exception: one request produces
	// many response frames, all echoing the request id, until an error
	// response ends the stream.
	Rep *RepFrame `json:"-"`
}

// RepFrame is one hop of a replication stream. Recs carries WAL records
// in the segment wire encoding (self-delimiting, CRC-protected).
//
// When Reset is false the records sit at stream positions Base+1..Pos
// and the follower applies them in place (idempotent; an overlap with
// already-applied history deduplicates by position). When Reset is true
// the frames carry a full-state dump at position Pos — the follower was
// too far behind the primary's in-memory ring (or ahead of it entirely,
// after a divergent history) — split across frames with More set on all
// but the last; the follower accumulates and installs the dump atomically
// once More is clear.
type RepFrame struct {
	Reset bool
	More  bool
	Base  uint64
	Pos   uint64
	Recs  []byte
}

// TraceStage is one timed step of a traced query.
type TraceStage struct {
	// Name identifies the step ("decompose", "truncate", "probes",
	// "enumerate_probes", "shard_search").
	Name string `json:"name"`
	// DurNS is the stage's wall time in nanoseconds.
	DurNS int64 `json:"durNs"`
	// Count is the stage's unit count where one exists (cubes generated,
	// probes issued, shards searched).
	Count int `json:"count,omitempty"`
}

// TraceCost is the wire mirror of the query's cost stats (the engine's
// QueryStats): the paper's cost model for one search.
type TraceCost struct {
	M              int     `json:"m,omitempty"`
	CubesGenerated int     `json:"cubesGenerated"`
	RunsProbed     int     `json:"runsProbed"`
	VolumeFraction float64 `json:"volumeFraction"`
	AspectRatio    int     `json:"aspectRatio"`
	Found          bool    `json:"found"`
}

// Trace is one query's full trace record, returned by the trace op and
// (in batches) by slowlog.
type Trace struct {
	// Op is the logical operation traced ("query", "covered").
	Op string `json:"op"`
	// StartUnixNS is when the engine began the query (Unix nanoseconds).
	StartUnixNS int64 `json:"startUnixNs"`
	// TotalNS is the end-to-end engine latency in nanoseconds.
	TotalNS int64 `json:"totalNs"`
	// Stages are the timed steps in execution order.
	Stages []TraceStage `json:"stages,omitempty"`
	// Slices counts run probes per key slice (index = slice number).
	Slices []int `json:"slices,omitempty"`
	// Cost is the query's cost-stats snapshot.
	Cost TraceCost `json:"cost"`
}
