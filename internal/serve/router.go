package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"embrace/internal/collective"
	"embrace/internal/metrics"
	"embrace/internal/partition"
	"embrace/internal/tensor"
	"embrace/internal/trace"
)

// Typed serving errors. Callers branch on these with errors.Is.
var (
	// ErrOverloaded is returned at admission when the bounded queue is full:
	// the request fails fast instead of queuing unboundedly.
	ErrOverloaded = errors.New("serve: overloaded (admission queue full)")
	// ErrDeadline is returned when a request's deadline passes before the
	// driver computes its answer. Expired requests are dropped before the
	// exchange, so they never occupy an exchange slot.
	ErrDeadline = errors.New("serve: deadline exceeded")
	// ErrClosed is returned for requests that race or follow Close.
	ErrClosed = errors.New("serve: cluster closed")
)

// reqKind discriminates the two request types.
type reqKind int

const (
	kindLookup reqKind = iota
	kindPredict
)

// request is one admitted unit of work, owned by the driver after admission.
type request struct {
	kind     reqKind
	ids      []int64 // lookup: rows to fetch; predict: the token window
	deadline time.Time
	admitted time.Time
	done     chan response
}

// response carries a request's result back to its submitter.
type response struct {
	rows  [][]float32 // lookup
	token int64       // predict: argmax token
	prob  float32     // predict: its probability
	err   error
}

// park is one Reload's hold on the drivers: each driver takes it between
// batches, clears its LRU, marks itself parked, and waits for resume.
type park struct {
	parked sync.WaitGroup
	resume chan struct{}
}

// Router is one driver's front end: it admits concurrent Lookup and Predict
// calls into that driver's bounded queue, where the driver goroutine
// micro-batches them. Each Router owns its admission queue, deadline gate,
// hot-row LRU, and stat block — drivers share nothing on the request path
// except the read-mostly hot set and their ranks' shards. All methods are
// safe for concurrent use.
type Router struct {
	c      *Cluster
	driver int // the driver's rank
	queue  chan *request
	parkCh chan *park
	cache  *lruCache // nil when caching is disabled
	ctr    counters

	// batch numbers this driver's fetches; only the driver goroutine
	// touches it.
	batch int64

	closedMu chan struct{} // closed exactly once by close(); nil-check via select
}

func newRouter(c *Cluster, driver, depth int) *Router {
	r := &Router{
		c:        c,
		driver:   driver,
		queue:    make(chan *request, depth),
		parkCh:   make(chan *park),
		closedMu: make(chan struct{}),
	}
	r.ctr.latency = metrics.NewHistogram()
	r.ctr.queueWait = metrics.NewHistogram()
	r.cache = newLRUCache(c.cfg.CacheRows, &r.ctr.cache)
	return r
}

// Driver returns the rank this router fronts.
func (r *Router) Driver() int { return r.driver }

func (r *Router) close() { close(r.closedMu) }

func (r *Router) closed() bool {
	select {
	case <-r.closedMu:
		return true
	default:
		return false
	}
}

// driverStats snapshots this driver's own counters as a Stats value.
// Cluster-level fields (Packed, Reloads, Hot, CommPerOp) stay zero.
func (r *Router) driverStats() Stats {
	return Stats{
		Drivers:    1,
		Requests:   r.ctr.requests.Load(),
		Lookups:    r.ctr.lookups.Load(),
		Predicts:   r.ctr.predicts.Load(),
		Batches:    r.ctr.batches.Load(),
		Exchanges:  r.ctr.exchanges.Load(),
		Coalesced:  r.ctr.coalesced.Load(),
		LocalRows:  r.ctr.localRows.Load(),
		RemoteRows: r.ctr.remoteRows.Load(),
		Overloaded: r.ctr.overloaded.Load(),
		Expired:    r.ctr.expired.Load(),
		Cache:      r.ctr.cache.Snapshot(),
		Latency:    r.ctr.latency.Summary(),
		QueueWait:  r.ctr.queueWait.Summary(),
	}
}

// Lookup resolves the embedding row of every id, in order, including
// duplicates. The returned rows are private copies. Fails fast with
// ErrOverloaded when the admission queue is full and with ErrDeadline when
// ctx's deadline expires before the rows are resolved.
func (r *Router) Lookup(ctx context.Context, ids []int64) ([][]float32, error) {
	resp := r.do(ctx, &request{kind: kindLookup, ids: ids})
	return resp.rows, resp.err
}

// Predict mean-pools the window's embedding rows, runs the trunk, and
// returns the argmax next token with its probability — arithmetic identical
// to the training model's forward pass over the same checkpoint.
func (r *Router) Predict(ctx context.Context, window []int64) (int64, float32, error) {
	resp := r.do(ctx, &request{kind: kindPredict, ids: window})
	return resp.token, resp.prob, resp.err
}

// do admits one request and waits for its reply.
func (r *Router) do(ctx context.Context, req *request) response {
	for _, id := range req.ids {
		if id < 0 || id >= int64(r.c.vocab) {
			return response{err: fmt.Errorf("serve: id %d outside vocab [0, %d)", id, r.c.vocab)}
		}
	}
	if r.closed() {
		return response{err: ErrClosed}
	}
	if err := ctx.Err(); err != nil {
		return response{err: fmt.Errorf("%w: %v", ErrDeadline, err)}
	}
	if dl, ok := ctx.Deadline(); ok {
		req.deadline = dl
	}
	req.admitted = time.Now()
	req.done = make(chan response, 1)
	select {
	case r.queue <- req:
	default:
		r.ctr.overloaded.Add(1)
		return response{err: ErrOverloaded}
	}
	r.ctr.requests.Add(1)
	if req.kind == kindLookup {
		r.ctr.lookups.Add(1)
	} else {
		r.ctr.predicts.Add(1)
	}
	// The driver answers every admitted request, including during shutdown,
	// so this receive always completes.
	resp := <-req.done
	r.ctr.latency.ObserveDuration(time.Since(req.admitted))
	return resp
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

// driverLoop is a driver's life: collect a micro-batch from its router,
// resolve it, reply; park between batches when a reload asks; on Close,
// answer whatever is still queued.
func (c *Cluster) driverLoop(r *Router) {
	for {
		select {
		case <-c.closeCh:
			c.shutdown(r)
			return
		case p := <-r.parkCh:
			r.cacheClear()
			p.parked.Done()
			select {
			case <-p.resume:
			case <-c.closeCh:
			}
		case req := <-r.queue:
			batch := c.collectBatch(r, req)
			c.processBatch(r, batch)
		}
	}
}

// collectBatch waits up to BatchWindow for more requests after the first,
// capped at MaxBatch — the micro-batching that makes within-batch dedup (and
// the single exchange per batch) worth having.
func (c *Cluster) collectBatch(r *Router, first *request) []*request {
	batch := []*request{first}
	if c.cfg.MaxBatch == 1 {
		return batch
	}
	timer := time.NewTimer(c.cfg.BatchWindow)
	defer timer.Stop()
	for len(batch) < c.cfg.MaxBatch {
		select {
		case req := <-r.queue:
			batch = append(batch, req)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// shutdown answers everything still queued on this driver.
func (c *Cluster) shutdown(r *Router) {
	for {
		select {
		case req := <-r.queue:
			req.done <- response{err: ErrClosed}
		default:
			return
		}
	}
}

// processBatch answers one micro-batch: drop expired requests, dedup ids,
// resolve rows (cache, hot set, local shard, owners), then compute and
// reply. A request that needs a row no owner could supply gets that owner's
// error; the rest of the batch is answered normally.
func (c *Cluster) processBatch(r *Router, batch []*request) {
	r.ctr.batches.Add(1)
	tr := c.tracers[r.driver]
	now := time.Now()
	r.ctr.queueWait.ObserveDuration(now.Sub(batch[0].admitted))
	tr.Record(trace.TrackCompute, "serve/queue-wait", -1, now.Sub(batch[0].admitted))

	// Deadline gate: an expired request is answered now and excluded, so it
	// never occupies a fetch.
	live := batch[:0]
	for _, req := range batch {
		if !req.deadline.IsZero() && now.After(req.deadline) {
			r.ctr.expired.Add(1)
			req.done <- response{err: ErrDeadline}
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}

	// Coalesce: the union of all ids, deduplicated in first-seen order.
	var need []int64
	seen := make(map[int64]struct{})
	total := 0
	for _, req := range live {
		for _, id := range req.ids {
			total++
			if _, ok := seen[id]; !ok {
				seen[id] = struct{}{}
				need = append(need, id)
			}
		}
	}
	r.ctr.coalesced.Add(int64(total - len(need)))

	rows, failed := c.resolve(r, need)
	served := live[:0]
	for _, req := range live {
		if err := firstFailure(req.ids, failed); err != nil {
			req.done <- response{err: err}
			continue
		}
		served = append(served, req)
	}
	c.reply(r, served, rows)
}

// firstFailure returns the fetch error of the first id in ids that could
// not be resolved, or nil.
func firstFailure(ids []int64, failed map[int64]error) error {
	for _, id := range ids {
		if err, ok := failed[id]; ok {
			return err
		}
	}
	return nil
}

// resolve maps each unique id to its full embedding row: this driver's LRU
// first, then the cluster-wide replicated hot set, and only for what's left
// the shards. Every access feeds the hot set's frequency tracker, so rows
// any driver keeps seeing get promoted into replicas all drivers serve
// locally. Ids whose owner failed are returned in failed instead.
func (c *Cluster) resolve(r *Router, need []int64) (rows map[int64][]float32, failed map[int64]error) {
	rows = make(map[int64][]float32, len(need))
	var miss []int64
	for _, id := range need {
		if row, ok := r.cacheGet(id); ok {
			rows[id] = row
			continue
		}
		if row, ok := c.hot.get(id); ok {
			rows[id] = row
			continue
		}
		miss = append(miss, id)
	}
	if len(miss) > 0 {
		span := c.tracers[r.driver].Begin(trace.TrackCompute, "serve/xchg", -1)
		fetched, bad := c.fetchRows(r, miss)
		span.End()
		for id, row := range fetched {
			rows[id] = row
			r.cachePut(id, row)
		}
		failed = bad
	}
	// One frequency update per batch over the deduplicated set, with every
	// resolved value in hand for promotion. Hot-set rows are bit-exact copies
	// of what this lookup path just served, so replica hits on any driver
	// return exactly what a shard fetch would.
	c.hot.touchAll(need, rows)
	return rows, failed
}

// fetchRows resolves misses from the shards that own them. The row schemes
// ask each id's owner for its full row; column-wise asks every rank for its
// column slice of every miss and reassembles. The driver's own share is read
// straight from its shard — no packing, no messages — and every other owner
// gets one request, all sent before any reply is awaited. An owner that
// fails (down, timed out, or refusing) fails only the ids it was asked for.
func (c *Cluster) fetchRows(r *Router, miss []int64) (rows map[int64][]float32, failed map[int64]error) {
	ranks, self := c.cfg.Ranks, r.driver
	asks := make([][]int64, ranks)
	switch c.cfg.Partition {
	case PartRowHash, PartConsistent:
		for _, id := range miss {
			owner := rowOwner(c.cfg.Partition, id, ranks)
			asks[owner] = append(asks[owner], id)
		}
	case PartColumn:
		for p := range asks {
			asks[p] = miss
		}
	}
	rows = make(map[int64][]float32, len(miss))
	failed = make(map[int64]error)
	// place copies rank p's payload for asks[p] into the rows at p's columns.
	place := func(p int, vals []float32) {
		lo, hi := c.columns(p)
		for k, id := range asks[p] {
			row, ok := rows[id]
			if !ok {
				row = make([]float32, c.embDim)
				rows[id] = row
			}
			copy(row[lo:hi], vals[k*(hi-lo):])
		}
	}
	fail := func(p int, err error) {
		err = fmt.Errorf("serve: driver %d fetch from rank %d: %w", r.driver, p, err)
		for _, id := range asks[p] {
			failed[id] = err
		}
	}

	remote := 0
	for p, ids := range asks {
		if p != self {
			remote += len(ids)
		}
	}
	r.ctr.localRows.Add(int64(len(asks[self])))
	r.ctr.remoteRows.Add(int64(remote))

	rs := c.ranks[self]
	rs.mu.RLock()
	vals, err := rs.shard.pack(asks[self])
	rs.mu.RUnlock()
	if err != nil {
		fail(self, err)
	} else {
		place(self, vals)
	}

	if remote > 0 {
		r.ctr.exchanges.Add(1)
		r.batch++
		cm := c.cms[self]
		var asked []int
		for p, ids := range asks {
			if p == self || len(ids) == 0 {
				continue
			}
			if err := cm.Send(opReq, 0, p, fetchReq{Batch: r.batch, IDs: ids}); err != nil {
				fail(p, err)
				continue
			}
			asked = append(asked, p)
		}
		for _, p := range asked {
			if vals, err := c.await(cm, p, r.batch, len(asks[p])); err != nil {
				fail(p, err)
			} else {
				place(p, vals)
			}
		}
	}
	for id := range failed {
		delete(rows, id)
	}
	return rows, failed
}

// columns is the [lo, hi) column range rank p's shard holds of every row.
func (c *Cluster) columns(p int) (lo, hi int) {
	if c.cfg.Partition == PartColumn {
		return partition.ColumnWise{}.Range(c.embDim, c.cfg.Ranks, p)
	}
	return 0, c.embDim
}

// await receives owner p's reply to batch, skipping stale replies to
// batches that already gave up on p, and returns its payload of n rows.
func (c *Cluster) await(cm *collective.Communicator, p int, batch int64, n int) ([]float32, error) {
	for {
		msg, err := cm.Recv(opRows, 0, p)
		if err != nil {
			return nil, err
		}
		resp, ok := msg.(fetchResp)
		if !ok {
			return nil, fmt.Errorf("reply payload %T", msg)
		}
		if resp.Batch != batch {
			continue
		}
		if resp.Err != "" {
			return nil, errors.New(resp.Err)
		}
		lo, hi := c.columns(p)
		vals := resp.Vals
		if c.cfg.Codec != nil {
			start := time.Now()
			if _, vals, err = c.cfg.Codec.DecodeShard(resp.Wire, n, hi-lo, nil, nil); err != nil {
				return nil, err
			}
			c.recs[cm.Rank()].CodecOp(opRows, "decode", 0, 0, time.Since(start))
		}
		if len(vals) != n*(hi-lo) {
			return nil, fmt.Errorf("reply carries %d values, want %d rows x %d", len(vals), n, hi-lo)
		}
		return vals, nil
	}
}

// reply computes each live request's answer from the resolved rows. All
// predict requests share one batched trunk forward; Infer is row-independent,
// so batching preserves bit-identity with a per-request forward.
func (c *Cluster) reply(r *Router, live []*request, rows map[int64][]float32) {
	var predicts []*request
	for _, req := range live {
		if req.kind == kindPredict {
			predicts = append(predicts, req)
			continue
		}
		out := make([][]float32, len(req.ids))
		for i, id := range req.ids {
			out[i] = append([]float32(nil), rows[id]...)
		}
		req.done <- response{rows: out}
	}
	if len(predicts) == 0 {
		return
	}

	span := c.tracers[r.driver].Begin(trace.TrackCompute, "serve/fwd", -1)

	// Mean-pool each window with exactly nn.Embedding.PoolLookup's
	// arithmetic: accumulate row*inv in window order.
	pooled := tensor.NewDense(len(predicts), c.embDim)
	for i, req := range predicts {
		dst := pooled.Row(i)
		if len(req.ids) == 0 {
			continue
		}
		inv := 1 / float32(len(req.ids))
		for _, tok := range req.ids {
			src := rows[tok]
			for d := 0; d < c.embDim; d++ {
				dst[d] += src[d] * inv
			}
		}
	}
	rs := c.ranks[r.driver]
	rs.mu.RLock()
	trunk := rs.trunk
	rs.mu.RUnlock()
	probs, err := trunk.Infer(pooled)
	// End the span before answering, so a caller holding its answer also
	// sees the span.
	span.End()
	if err != nil {
		for _, req := range predicts {
			req.done <- response{err: err}
		}
		return
	}
	for i, req := range predicts {
		row := probs.Row(i)
		best := 0
		for v := 1; v < len(row); v++ {
			if row[v] > row[best] {
				best = v
			}
		}
		req.done <- response{token: int64(best), prob: row[best]}
	}
}
