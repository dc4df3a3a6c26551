package sfcd

import (
	"context"
	"errors"
	"fmt"

	"sfccover/internal/core"
	"sfccover/internal/dominance"
	"sfccover/internal/subscription"
)

// RemoteProvider adapts one link namespace of a dialed sfcd daemon to
// core.Provider: the full Add/Insert/Remove/FindCover/FindCovered/Stats
// surface travels over the client's pipelined connection, so brokers and
// routers can point any provider seam at a shared daemon exactly as they
// would at an in-process Detector or Engine. Any number of providers —
// one per broker link, say — share a single Client and therefore a
// single TCP connection; their requests interleave without head-of-line
// blocking.
//
// Divergences forced by the interface: the per-query dominance.Stats are
// server-side aggregates (visible through Stats), so FindCover/FindCovered
// return zero-valued per-call stats; Len and Subscription have no error
// channel, so connection failures surface as 0 / not-found there and as
// real errors on the next erroring operation.
//
// Closing a RemoteProvider releases its link namespace on the daemon
// (best effort); it never closes the shared Client. Close the Client
// itself when all providers on it are done.
//
//sfc:wrapper
//sfc:nocap CoveredDrainer the wire protocol has no drain op; routers drain via the FindCovered/unsubscribe loop, which stays correct over the wire
//sfc:nocap Enumerator a full subscription dump has no wire op and would be an unbounded response frame; enumerate server-side
//sfc:nocap BulkInserter the wire batch op is subscribe_batch (AddBatch), which covering daemons need; a log-free bulk insert op does not exist remotely
type RemoteProvider struct {
	c    *Client
	link string
	mode core.Mode
	ctx  context.Context
}

var _ core.Provider = (*RemoteProvider)(nil)
var _ core.BatchQuerier = (*RemoteProvider)(nil)
var _ core.BatchWriter = (*RemoteProvider)(nil)
var _ core.Rebalancer = (*RemoteProvider)(nil)
var _ core.Persister = (*RemoteProvider)(nil)

// Provider returns a core.Provider over the given link namespace of the
// daemon. The empty link is the daemon's shared engine; any other link
// names an isolated subscription set, lazily materialized server-side
// from the engine's detector template (so its mode matches the daemon's).
func (c *Client) Provider(link string) (*RemoteProvider, error) {
	mode, err := core.ParseMode(c.mode)
	if err != nil {
		return nil, fmt.Errorf("sfcd: hello negotiated %w", err)
	}
	return &RemoteProvider{c: c, link: link, mode: mode, ctx: context.Background()}, nil
}

// Link returns the provider's namespace on the daemon.
func (r *RemoteProvider) Link() string { return r.link }

// checkSchema mirrors the local providers' pointer check so misuse fails
// identically whether the index is local or remote.
func (r *RemoteProvider) checkSchema(s *subscription.Subscription) error {
	if s.Schema() != r.c.schema {
		return errors.New("sfcd: subscription schema differs from client schema")
	}
	return nil
}

// Add runs the router arrival path on the daemon: covering query, then
// insert either way.
func (r *RemoteProvider) Add(s *subscription.Subscription) (id uint64, covered bool, coveredBy uint64, err error) {
	if err := r.checkSchema(s); err != nil {
		return 0, false, 0, err
	}
	resp, err := r.c.do(r.ctx, &Request{Op: OpSubscribe, Link: r.link, sub: s})
	if err != nil {
		return 0, false, 0, err
	}
	if resp.Result == nil {
		return 0, false, 0, errors.New("sfcd: response carries no result")
	}
	return resp.Result.SID, resp.Result.Covered, resp.Result.CoveredBy, nil
}

// Insert stores s unconditionally and returns its id.
func (r *RemoteProvider) Insert(s *subscription.Subscription) (uint64, error) {
	if err := r.checkSchema(s); err != nil {
		return 0, err
	}
	resp, err := r.c.do(r.ctx, &Request{Op: OpInsert, Link: r.link, sub: s})
	if err != nil {
		return 0, err
	}
	if resp.Result == nil {
		return 0, errors.New("sfcd: response carries no result")
	}
	return resp.Result.SID, nil
}

// Remove deletes a previously inserted subscription by id.
func (r *RemoteProvider) Remove(id uint64) error {
	_, err := r.c.do(r.ctx, &Request{Op: OpUnsubscribe, Link: r.link, SID: id})
	return err
}

// FindCover searches the namespace for a subscription covering s. The
// per-call dominance stats are zero (they live server-side; see Stats).
func (r *RemoteProvider) FindCover(s *subscription.Subscription) (id uint64, found bool, stats dominance.Stats, err error) {
	if err := r.checkSchema(s); err != nil {
		return 0, false, stats, err
	}
	resp, err := r.c.do(r.ctx, &Request{Op: OpQuery, Link: r.link, sub: s})
	if err != nil {
		return 0, false, stats, err
	}
	if resp.Result == nil {
		return 0, false, stats, errors.New("sfcd: response carries no result")
	}
	return resp.Result.CoveredBy, resp.Result.Covered, stats, nil
}

// FindCovered searches the namespace for a subscription that s covers.
func (r *RemoteProvider) FindCovered(s *subscription.Subscription) (id uint64, found bool, stats dominance.Stats, err error) {
	if err := r.checkSchema(s); err != nil {
		return 0, false, stats, err
	}
	resp, err := r.c.do(r.ctx, &Request{Op: OpCovered, Link: r.link, sub: s})
	if err != nil {
		return 0, false, stats, err
	}
	if resp.Result == nil {
		return 0, false, stats, errors.New("sfcd: response carries no result")
	}
	return resp.Result.CoveredBy, resp.Result.Covered, stats, nil
}

// CoverQueryBatch implements core.BatchQuerier: the whole batch rides one
// request frame and fans out across the daemon's worker pool.
func (r *RemoteProvider) CoverQueryBatch(subs []*subscription.Subscription) []core.QueryResult {
	out := make([]core.QueryResult, len(subs))
	valid := make([]*subscription.Subscription, len(subs))
	for i, s := range subs {
		if err := r.checkSchema(s); err != nil {
			// Per-item validation failures poison only their own slot, as
			// with the engine's batch path; the slot travels empty.
			out[i] = core.QueryResult{Err: err}
			continue
		}
		valid[i] = s
	}
	resp, err := r.c.do(r.ctx, &Request{Op: OpQueryBatch, Link: r.link, subs: valid})
	if err != nil {
		for i := range out {
			if out[i].Err == nil {
				out[i].Err = err
			}
		}
		return out
	}
	if len(resp.Results) != len(subs) {
		err := fmt.Errorf("sfcd: %d results for %d queries", len(resp.Results), len(subs))
		for i := range out {
			if out[i].Err == nil {
				out[i].Err = err
			}
		}
		return out
	}
	for i, res := range resp.Results {
		if out[i].Err != nil {
			continue
		}
		if res.Error != "" {
			out[i].Err = &ServerError{Code: CodeOpFailed, Msg: res.Error}
			continue
		}
		out[i] = core.QueryResult{Covered: res.Covered, CoveredBy: res.CoveredBy}
	}
	return out
}

// AddBatch implements core.BatchWriter: the whole arrival-path batch
// (covering query + insert per item) rides one subscribe_batch request
// frame instead of one round trip per subscription — the churn-path
// amortization the wire op existed for.
func (r *RemoteProvider) AddBatch(subs []*subscription.Subscription) []core.AddResult {
	out := make([]core.AddResult, len(subs))
	valid := make([]*subscription.Subscription, len(subs))
	for i, s := range subs {
		if err := r.checkSchema(s); err != nil {
			// Per-item validation failures poison only their own slot.
			out[i].Err = err
			continue
		}
		valid[i] = s
	}
	resp, err := r.c.do(r.ctx, &Request{Op: OpSubscribeBatch, Link: r.link, subs: valid})
	if err == nil && len(resp.Results) != len(subs) {
		err = fmt.Errorf("sfcd: %d results for %d subscriptions", len(resp.Results), len(subs))
	}
	if err != nil {
		for i := range out {
			if out[i].Err == nil {
				out[i].Err = err
			}
		}
		return out
	}
	for i, res := range resp.Results {
		if out[i].Err != nil {
			continue
		}
		if res.Error != "" {
			out[i].Err = &ServerError{Code: CodeOpFailed, Msg: res.Error}
			continue
		}
		out[i] = core.AddResult{ID: res.SID, QueryResult: core.QueryResult{Covered: res.Covered, CoveredBy: res.CoveredBy}}
	}
	return out
}

// RemoveBatch implements core.BatchWriter over one unsubscribe_batch
// round trip. The returned slice aligns with ids; entries are nil on
// success.
func (r *RemoteProvider) RemoveBatch(ids []uint64) []error {
	out := make([]error, len(ids))
	fail := func(err error) []error {
		for i := range out {
			out[i] = err
		}
		return out
	}
	resp, err := r.c.do(r.ctx, &Request{Op: OpUnsubscribeBatch, Link: r.link, SIDs: ids})
	if err != nil {
		return fail(err)
	}
	if len(resp.Results) != len(ids) {
		return fail(fmt.Errorf("sfcd: %d results for %d ids", len(resp.Results), len(ids)))
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			out[i] = &ServerError{Code: CodeOpFailed, Msg: res.Error}
		}
	}
	return out
}

// Rebalance implements core.Rebalancer by forwarding to the daemon: the
// addressed namespace rebalances server-side and reports the pass.
// Namespaces without the capability surface core.ErrRebalanceUnsupported,
// exactly like a local provider would.
func (r *RemoteProvider) Rebalance() (core.RebalanceResult, error) {
	resp, err := r.c.do(r.ctx, &Request{Op: OpRebalance, Link: r.link})
	if err != nil {
		var se *ServerError
		if errors.As(err, &se) && se.Code == CodeUnsupported {
			return core.RebalanceResult{}, fmt.Errorf("%w: %s", core.ErrRebalanceUnsupported, se.Msg)
		}
		return core.RebalanceResult{}, err
	}
	if resp.Rebalance == nil {
		return core.RebalanceResult{}, errors.New("sfcd: response carries no rebalance outcome")
	}
	return core.RebalanceResult{
		Moves:      resp.Rebalance.Moves,
		Migrated:   resp.Rebalance.Migrated,
		SkewBefore: resp.Rebalance.SkewBefore,
		SkewAfter:  resp.Rebalance.SkewAfter,
	}, nil
}

// Snapshot implements core.Persister by forwarding to the daemon: its
// whole durable store (all links — the log is shared) snapshots and
// compacts. Daemons running without a data dir surface
// core.ErrSnapshotUnsupported, exactly like a local provider without a
// store would.
func (r *RemoteProvider) Snapshot() error {
	_, err := r.c.do(r.ctx, &Request{Op: OpSnapshot, Link: r.link})
	if err != nil {
		var se *ServerError
		if errors.As(err, &se) && se.Code == CodeUnsupported {
			return fmt.Errorf("%w: %s", core.ErrSnapshotUnsupported, se.Msg)
		}
		return err
	}
	return nil
}

// Subscription resolves an id to its held subscription. The Provider
// signature has no error channel, so connection trouble reads as
// not-found here and errors on the next operation that can report it.
func (r *RemoteProvider) Subscription(id uint64) (*subscription.Subscription, bool) {
	resp, err := r.c.do(r.ctx, &Request{Op: OpGet, Link: r.link, SID: id})
	if err != nil || resp.Result == nil {
		return nil, false
	}
	sub, err := subscription.UnmarshalSubscription(r.c.schema, resp.Result.Payload)
	if err != nil {
		return nil, false
	}
	return sub, true
}

// Len returns the number of held subscriptions in the namespace (0 when
// the daemon cannot be reached; see the type comment).
func (r *RemoteProvider) Len() int { return r.Stats().Subscriptions }

// Mode returns the daemon's detection mode, as negotiated at dial time.
func (r *RemoteProvider) Mode() core.Mode { return r.mode }

// Schema returns the client's attribute schema.
func (r *RemoteProvider) Schema() *subscription.Schema { return r.c.schema }

// Stats returns the namespace's uniform counter snapshot (zero-valued
// when the daemon cannot be reached).
func (r *RemoteProvider) Stats() core.ProviderStats {
	ws, err := r.stats()
	if err != nil {
		return core.ProviderStats{}
	}
	ps := core.ProviderStats{
		Queries:           ws.Queries,
		Hits:              ws.Hits,
		RunsProbed:        ws.RunsProbed,
		CubesGenerated:    ws.CubesGenerated,
		ShardSearches:     ws.ShardSearches,
		DecompCacheHits:   ws.DecompCacheHits,
		DecompCacheMisses: ws.DecompCacheMisses,
		Rebalances:        ws.Rebalances,
		BoundaryMoves:     ws.BoundaryMoves,
		MigratedEntries:   ws.MigratedEntries,
		Snapshots:         ws.Snapshots,
		WALRecords:        ws.WALRecords,
		WALBytes:          ws.WALBytes,
	}
	ps.SetShardSizes(ws.ShardSizes)
	return ps
}

func (r *RemoteProvider) stats() (Stats, error) {
	resp, err := r.c.do(r.ctx, &Request{Op: OpStats, Link: r.link})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, errors.New("sfcd: response carries no stats")
	}
	return *resp.Stats, nil
}

// Close releases the link namespace on the daemon (best effort — a lost
// connection makes it a no-op; the daemon reaps namespaces with the
// process). The shared Client stays open. Close is idempotent: unlink of
// an unknown or already-released link succeeds server-side.
func (r *RemoteProvider) Close() {
	if r.link == "" {
		return // the shared engine is not ours to tear down
	}
	r.c.do(r.ctx, &Request{Op: OpUnlink, Link: r.link}) //nolint:errcheck // best effort
}
