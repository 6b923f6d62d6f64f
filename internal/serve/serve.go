// Package serve turns a training checkpoint into a multi-rank inference
// service — the serving counterpart of the trainer. The mechanisms are the
// paper's, repurposed: the embedding table is partitioned across ranks
// (row-hash, consistent-hash, or column-wise, §4.1.1), remote rows are
// fetched from the ranks that own them over the Communicator's self-healing
// point-to-point streams, and repeated ids within a micro-batch are
// deduplicated before the fetch — the serving analogue of Algorithm 1's
// gradient coalescing. The dense trunk is small and replicated, so only the
// sparse lookups cross ranks.
//
// Topology: a configurable driver set fronts the cluster. Each driver rank
// (ranks 0..Drivers-1) runs its own ingress — an independent admission
// queue, micro-batching window with dedup, and hot-row LRU — and contacts
// other ranks only for the rows a batch misses and they own. The fetch
// protocol is owner-addressed request/response: the driver sends each owner
// one {batch id, ids} request on "serve/req", sends to every owner before
// waiting on any, then takes one {batch id, rows, error} reply per owner on
// "serve/rows". Every rank runs one stateless handler loop per remote
// driver that answers those requests from its shard. Streams are keyed by
// sender, so concurrent drivers never share one, and a reply whose batch id
// is stale (its batch gave up on a receive timeout) is discarded. A dead
// rank fails only the requests that need its rows. Everything rides one
// Communicator per rank over one Transport — the in-process world, real TCP
// sockets, or the chaos wrapper with no code change.
//
// On top of the driver set sits the hot-shard replication manager (hotSet):
// an access-frequency tracker promotes Zipf-hot rows into a replica set
// every ingress serves locally, so the popular head of the vocabulary never
// crosses the fabric regardless of which rank owns it or which driver
// admits the request.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"embrace/internal/checkpoint"
	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/metrics"
	"embrace/internal/nn"
	"embrace/internal/partition"
	"embrace/internal/tensor"
	"embrace/internal/trace"
)

// Partitioning schemes the serving shards support.
const (
	// PartRowHash shards full rows by token id modulo ranks: each lookup
	// touches one rank, but the Zipf head concentrates on whichever ranks
	// own hot rows.
	PartRowHash = "row-hash"
	// PartColumn shards every row's columns evenly: each lookup touches all
	// ranks and each contributes 1/n of the row — EmbRace's balanced layout.
	PartColumn = "column"
	// PartConsistent shards full rows on a consistent-hash ring
	// (partition.ConsistentHash): like row-hash, one owner per row, but
	// ownership is stable under resizing — growing the rank set moves only
	// the arcs the new rank captures instead of reshuffling everything.
	PartConsistent = "consistent-hash"
)

// Config parameterizes a serving cluster.
type Config struct {
	// Ranks is the number of serving ranks (default 1).
	Ranks int
	// Drivers is how many ranks front the cluster as ingresses (default 1,
	// clamped to Ranks). Ranks 0..Drivers-1 each run an independent
	// admission queue, micro-batcher, and hot-row LRU, and fetch remote rows
	// straight from their owners.
	Drivers int
	// Partition selects the embedding layout: PartRowHash (default),
	// PartColumn, or PartConsistent.
	Partition string
	// CacheRows bounds each driver's hot-row LRU cache; 0 disables caching.
	CacheRows int
	// HotRows bounds the replicated hot set shared by all drivers; 0
	// disables hot-shard replication. Rows accessed HotPromote times are
	// promoted into it and served by every ingress without touching the
	// fabric; reload invalidates every replica.
	HotRows int
	// HotPromote is how many accesses promote a row into the hot set
	// (default 3).
	HotPromote int
	// MaxBatch caps how many requests one micro-batch coalesces (default 32).
	MaxBatch int
	// BatchWindow is how long a driver waits for stragglers after the
	// first request of a batch arrives (default 200µs).
	BatchWindow time.Duration
	// QueueDepth bounds each driver's admission queue (default 256). A full
	// queue fails fast with ErrOverloaded.
	QueueDepth int
	// RecvTimeout bounds blocking receives on the fabric; 0 blocks forever.
	RecvTimeout time.Duration
	// TCP, when set, boots the cluster over real localhost TCP sockets
	// (comm.NewTCPWorld) instead of the in-process mailbox world — the
	// fabric the scale harness measures. Incompatible with Chaos.
	TCP bool
	// Chaos, when non-nil, builds the cluster over a fault-injecting fabric
	// (comm.NewChaosWorld) instead of the plain in-process world.
	Chaos *comm.FaultPlan
	// Trace enables per-rank trace.Recorder span collection.
	Trace bool
	// TraceClock overrides the trace clock (tests); nil uses wall time.
	TraceClock trace.Clock
	// Codec, when non-nil, compresses the row-fetch replies between ranks
	// (DESIGN.md §12). Lossless codecs keep responses bit-identical to the
	// raw wire; lossy ones would perturb served embeddings and are rejected
	// by the facade.
	Codec collective.SparseCodec
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.Drivers <= 0 {
		c.Drivers = 1
	}
	if c.Drivers > c.Ranks {
		c.Drivers = c.Ranks
	}
	if c.Partition == "" {
		c.Partition = PartRowHash
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 200 * time.Microsecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return c
}

// fabric abstracts the in-process worlds and the TCP world a cluster can
// run on.
type fabric interface {
	Rank(i int) comm.Transport
	Close()
}

// Cluster is a running serving deployment: N ranks over one fabric, a loaded
// checkpoint, and one router per driver. Create with New, stop with Close.
type Cluster struct {
	cfg   Config
	world fabric
	chaos *comm.ChaosWorld // == world when chaotic, for Injected()

	// routers holds one front end per driver; nextRouter round-robins the
	// cluster-level Lookup/Predict entry points across them.
	routers    []*Router
	nextRouter atomic.Int64

	// ranks holds each rank's shard and trunk, rebuilt in place on reload;
	// cms holds each rank's one Communicator, shared by its driver (if any)
	// and its handlers.
	ranks []*rankState
	cms   []*collective.Communicator

	// hot is the cluster-wide replication manager; nil when HotRows == 0.
	hot *hotSet

	vocab, embDim int

	// reloadMu serializes Reload calls.
	reloadMu sync.Mutex

	// Per-rank instrumentation, indexed by fabric rank and shared by that
	// rank's driver and handlers (both are concurrency-safe).
	recs    []*metrics.OpRecorder
	tracers []*trace.Recorder

	// Cluster-level counters; per-driver counters live on each Router.
	packed, reloads atomic.Int64

	closeOnce         sync.Once
	closeCh           chan struct{}
	drivers, handlers sync.WaitGroup

	// errMu guards the first handler error.
	errMu sync.Mutex
	err   error
}

// counters is one driver's atomic stat block.
type counters struct {
	requests, lookups, predicts atomic.Int64
	batches, exchanges          atomic.Int64
	coalesced                   atomic.Int64
	localRows, remoteRows       atomic.Int64
	overloaded, expired         atomic.Int64
	cache                       metrics.CacheCounters
	latency                     *metrics.Histogram
	queueWait                   *metrics.Histogram
}

// Stats is a point-in-time snapshot of serving counters. Cluster.Stats
// returns the cluster-wide aggregate — per-driver counters summed, latency
// histograms merged exactly — and Cluster.DriverStats returns one ingress's
// own slice of it.
type Stats struct {
	// Drivers is how many ingresses the snapshot aggregates (1 for a
	// DriverStats view).
	Drivers int
	// Requests admitted, split into Lookups and Predicts.
	Requests, Lookups, Predicts int64
	// Batches processed; Exchanges is how many needed rows from another
	// rank (a batch satisfied by cache + replicas + local shard skips it).
	Batches, Exchanges int64
	// Coalesced counts duplicate ids removed by within-batch dedup.
	Coalesced int64
	// Packed counts rows packed into fetch replies across all ranks.
	// Driver-owned and hot-replicated lookups resolve straight from local
	// storage and never pack, so a workload the ingresses can satisfy alone
	// keeps this 0.
	Packed int64
	// LocalRows and RemoteRows count rows resolved from a driver's own
	// shard versus fetched from peers.
	LocalRows, RemoteRows int64
	// Overloaded counts admissions refused with ErrOverloaded; Expired
	// counts admitted requests dropped at their deadline; Reloads counts
	// completed checkpoint swaps.
	Overloaded, Expired, Reloads int64
	// Cache aggregates the drivers' hot-row LRU hit/miss/eviction counts.
	Cache metrics.CacheStats
	// Hot is the hot-shard replication manager's snapshot (zero when
	// replication is disabled).
	Hot HotStats
	// Latency digests request latency (admission to reply); QueueWait the
	// time batches spent waiting for a driver. Aggregates are exact
	// histogram merges, not percentile averages.
	Latency, QueueWait metrics.Summary
	// CommPerOp folds per-op communication counters across all ranks.
	CommPerOp map[string]metrics.OpStats
}

// New boots a serving cluster from a checkpoint. The checkpoint must hold
// the facade's parameter set ("emb", "w1", "b1", "w2", "b2"); optimizer state
// is ignored. The returned cluster is live: its routers accept requests.
func New(ck *checkpoint.Checkpoint, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	switch cfg.Partition {
	case PartRowHash, PartColumn, PartConsistent:
	default:
		return nil, fmt.Errorf("serve: unknown partition %q (want %q, %q or %q)",
			cfg.Partition, PartRowHash, PartColumn, PartConsistent)
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	emb := ck.Params["emb"]
	if emb == nil || emb.Dims() != 2 {
		return nil, fmt.Errorf("serve: checkpoint has no [vocab x dim] %q table", "emb")
	}

	var world fabric
	var chaos *comm.ChaosWorld
	switch {
	case cfg.Chaos != nil && cfg.TCP:
		return nil, errors.New("serve: chaos injection over the TCP fabric is unsupported")
	case cfg.Chaos != nil:
		cw, err := comm.NewChaosWorld(cfg.Ranks, *cfg.Chaos)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if cfg.RecvTimeout > 0 {
			cw.SetRecvTimeout(cfg.RecvTimeout)
		}
		world, chaos = cw, cw
	case cfg.TCP:
		w, err := comm.NewTCPWorld(cfg.Ranks)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if cfg.RecvTimeout > 0 {
			w.SetRecvTimeout(cfg.RecvTimeout)
		}
		world = w
	default:
		w, err := comm.NewWorld(cfg.Ranks)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if cfg.RecvTimeout > 0 {
			w.SetRecvTimeout(cfg.RecvTimeout)
		}
		world = w
	}

	c := &Cluster{
		cfg:     cfg,
		world:   world,
		chaos:   chaos,
		vocab:   emb.Dim(0),
		embDim:  emb.Dim(1),
		hot:     newHotSet(cfg.HotRows, cfg.HotPromote),
		ranks:   make([]*rankState, cfg.Ranks),
		cms:     make([]*collective.Communicator, cfg.Ranks),
		recs:    make([]*metrics.OpRecorder, cfg.Ranks),
		tracers: make([]*trace.Recorder, cfg.Ranks),
		closeCh: make(chan struct{}),
	}

	for r := 0; r < cfg.Ranks; r++ {
		rs := &rankState{}
		if err := rs.load(cfg, r, ck); err != nil {
			world.Close()
			return nil, err
		}
		c.ranks[r] = rs

		c.recs[r] = metrics.NewOpRecorder()
		if cfg.Trace {
			opts := []trace.RecorderOption{}
			if cfg.TraceClock != nil {
				opts = append(opts, trace.WithClock(cfg.TraceClock))
			}
			tr := trace.NewRecorder(r, opts...)
			tr.RouteOp(opReq, trace.TrackNetwork)
			tr.RouteOp(opRows, trace.TrackNetwork)
			c.tracers[r] = tr
		}
		c.cms[r] = collective.NewCommunicator(world.Rank(r),
			collective.WithObserver(collective.MultiObserver(c.recs[r], c.tracers[r])))
	}

	c.routers = make([]*Router, cfg.Drivers)
	for d := 0; d < cfg.Drivers; d++ {
		c.routers[d] = newRouter(c, d, cfg.QueueDepth)
	}
	for d, r := range c.routers {
		c.drivers.Add(1)
		go func() { defer c.drivers.Done(); c.driverLoop(r) }()
		for rank := 0; rank < cfg.Ranks; rank++ {
			if rank != d {
				c.handlers.Add(1)
				go func() { defer c.handlers.Done(); c.handle(rank, d) }()
			}
		}
	}
	return c, nil
}

// Router returns the first driver's front end.
func (c *Cluster) Router() *Router { return c.routers[0] }

// RouterAt returns driver d's front end.
func (c *Cluster) RouterAt(d int) *Router { return c.routers[d] }

// Drivers returns the number of ingress drivers.
func (c *Cluster) Drivers() int { return len(c.routers) }

// route picks the next ingress round-robin — the cluster-level entry
// points' stand-in for an external load balancer.
func (c *Cluster) route() *Router {
	if len(c.routers) == 1 {
		return c.routers[0]
	}
	i := uint64(c.nextRouter.Add(1))
	return c.routers[i%uint64(len(c.routers))]
}

// Lookup resolves embedding rows via the next driver round-robin; see
// Router.Lookup.
func (c *Cluster) Lookup(ctx context.Context, ids []int64) ([][]float32, error) {
	return c.route().Lookup(ctx, ids)
}

// Predict runs the trunk over a pooled token window via the next driver
// round-robin; see Router.Predict.
func (c *Cluster) Predict(ctx context.Context, window []int64) (int64, float32, error) {
	return c.route().Predict(ctx, window)
}

// Stats snapshots the cluster-wide aggregate: every driver's counters
// summed, their latency histograms merged exactly (metrics.Histogram.Merge
// preserves percentile fidelity), plus the cluster-level packing, reload,
// and hot-set counters.
func (c *Cluster) Stats() Stats {
	agg := Stats{
		Drivers: len(c.routers),
		Packed:  c.packed.Load(),
		Reloads: c.reloads.Load(),
		Hot:     c.hot.snapshot(),
	}
	lat, qw := metrics.NewHistogram(), metrics.NewHistogram()
	for _, r := range c.routers {
		d := r.driverStats()
		agg.Requests += d.Requests
		agg.Lookups += d.Lookups
		agg.Predicts += d.Predicts
		agg.Batches += d.Batches
		agg.Exchanges += d.Exchanges
		agg.Coalesced += d.Coalesced
		agg.LocalRows += d.LocalRows
		agg.RemoteRows += d.RemoteRows
		agg.Overloaded += d.Overloaded
		agg.Expired += d.Expired
		agg.Cache.Hits += d.Cache.Hits
		agg.Cache.Misses += d.Cache.Misses
		agg.Cache.Evictions += d.Cache.Evictions
		lat.Merge(r.ctr.latency)
		qw.Merge(r.ctr.queueWait)
	}
	agg.Latency = lat.Summary()
	agg.QueueWait = qw.Summary()

	per := make(map[string]metrics.OpStats)
	for _, rec := range c.recs {
		for op, s := range rec.PerOp() {
			per[op] = per[op].Add(s)
		}
	}
	agg.CommPerOp = per
	return agg
}

// DriverStats snapshots one ingress's own counters: the per-driver slice of
// Stats. Cluster-level fields (Packed, Reloads, Hot, CommPerOp) are zero —
// they are not attributable to a single driver.
func (c *Cluster) DriverStats(d int) Stats {
	return c.routers[d].driverStats()
}

// Tracers returns the per-rank trace recorders (nil entries when tracing is
// off), for span inspection and Chrome-trace export.
func (c *Cluster) Tracers() []*trace.Recorder { return c.tracers }

// FaultsInjected reports the chaos fabric's injected-fault counts, or nil
// when the cluster runs on a fault-free fabric.
func (c *Cluster) FaultsInjected() map[string]int64 {
	if c.chaos == nil {
		return nil
	}
	return c.chaos.Injected()
}

// Err returns the first error a rank's handler could not absorb, if any.
// Fetch failures are not recorded here: they go to the requests that needed
// the missing rows.
func (c *Cluster) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

func (c *Cluster) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

// Reload swaps in a new checkpoint with zero downtime: every driver finishes
// its in-flight batch, clears its LRU cache and parks; every rank rebuilds
// its shard and trunk from the new snapshot, the replicated hot set is
// invalidated, and the drivers resume. No handler takes part: a parked
// driver has no request outstanding, so no reply can straddle the swap.
// After Reload returns, every response from every ingress is computed from
// the new checkpoint, exactly as a cold restart would compute it. The
// checkpoint is validated (shape agreement, same vocab/dim) before any rank
// commits to it.
func (c *Cluster) Reload(ck *checkpoint.Checkpoint) error {
	if err := ck.Validate(); err != nil {
		return err
	}
	emb := ck.Params["emb"]
	if emb == nil || emb.Dims() != 2 || emb.Dim(0) != c.vocab || emb.Dim(1) != c.embDim {
		return fmt.Errorf("serve: reload checkpoint shape mismatch (want [%d x %d] %q)", c.vocab, c.embDim, "emb")
	}
	for _, name := range []string{"w1", "b1", "w2", "b2"} {
		if ck.Params[name] == nil {
			return fmt.Errorf("serve: reload checkpoint missing trunk param %q", name)
		}
	}

	c.reloadMu.Lock()
	defer c.reloadMu.Unlock()
	p := &park{resume: make(chan struct{})}
	defer close(p.resume)
	p.parked.Add(len(c.routers))
	for _, r := range c.routers {
		select {
		case r.parkCh <- p:
		case <-c.closeCh:
			return ErrClosed
		}
	}
	p.parked.Wait()
	for r, rs := range c.ranks {
		if err := rs.load(c.cfg, r, ck); err != nil {
			return err
		}
	}
	c.hot.invalidate()
	c.reloads.Add(1)
	return nil
}

// Close shuts the cluster down: pending requests are answered with
// ErrClosed, the drivers drain, and the fabric is torn down, which ends the
// handlers. Idempotent.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		for _, r := range c.routers {
			r.close()
		}
		close(c.closeCh)
	})
	c.drivers.Wait()
	c.world.Close()
	c.handlers.Wait()
}

// ---------------------------------------------------------------------------
// Per-rank state.
// ---------------------------------------------------------------------------

// rankState is one rank's shard and trunk replica, read by that rank's
// driver and handlers. Reads take the read lock; Reload rebuilds under the
// write lock while every driver is parked, so the lock is uncontended on
// the serving path.
type rankState struct {
	mu    sync.RWMutex
	shard *shard
	trunk *nn.Trunk
}

// load (re)builds the rank's shard and trunk from a checkpoint. Everything
// is deep-copied so the caller's checkpoint stays untouched and two reloads
// never share tensors.
func (rs *rankState) load(cfg Config, rank int, ck *checkpoint.Checkpoint) error {
	for _, name := range []string{"w1", "b1", "w2", "b2"} {
		if ck.Params[name] == nil {
			return fmt.Errorf("serve: checkpoint missing trunk param %q", name)
		}
	}
	trunk := &nn.Trunk{
		W1: ck.Params["w1"].Clone(),
		B1: ck.Params["b1"].Clone(),
		W2: ck.Params["w2"].Clone(),
		B2: ck.Params["b2"].Clone(),
	}
	sh, err := newShard(ck.Params["emb"], cfg.Partition, cfg.Ranks, rank)
	if err != nil {
		return err
	}
	rs.mu.Lock()
	rs.shard, rs.trunk = sh, trunk
	rs.mu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Embedding shards.
// ---------------------------------------------------------------------------

// shard is one rank's slice of the embedding table. For the row schemes it
// holds the full rows it owns; for column-wise it holds every row's
// ColumnWise.Range column slice. pack answers requests in request order so
// a driver can zip ids with rows positionally.
type shard struct {
	part    string
	rank    int
	vocab   int
	width   int // columns held per row (the full width for row schemes)
	rows    map[int64][]float32
	columns *tensor.Dense // [vocab x width] (column-wise)
}

// rowOwner returns the rank holding id's full row under a row scheme.
func rowOwner(part string, id int64, ranks int) int {
	if part == PartConsistent {
		return partition.ConsistentHash{}.Owner(id, ranks)
	}
	return (partition.RowHash{}).Owner(id, ranks)
}

func newShard(emb *tensor.Dense, part string, ranks, rank int) (*shard, error) {
	vocab, dim := emb.Dim(0), emb.Dim(1)
	s := &shard{part: part, rank: rank, vocab: vocab, width: dim}
	switch part {
	case PartRowHash, PartConsistent:
		s.rows = make(map[int64][]float32)
		for tok := 0; tok < vocab; tok++ {
			if rowOwner(part, int64(tok), ranks) == rank {
				s.rows[int64(tok)] = append([]float32(nil), emb.Row(tok)...)
			}
		}
	case PartColumn:
		lo, hi := partition.ColumnWise{}.Range(dim, ranks, rank)
		s.width = hi - lo
		cols := tensor.NewDense(vocab, hi-lo)
		for tok := 0; tok < vocab; tok++ {
			copy(cols.Row(tok), emb.Row(tok)[lo:hi])
		}
		s.columns = cols
	default:
		return nil, fmt.Errorf("serve: unknown partition %q", part)
	}
	return s, nil
}

// payload returns the shard's stored values for one id without packing:
// a direct view into shard storage, valid until the next reload. Unowned or
// out-of-range ids error out rather than silently serving zeros.
func (s *shard) payload(id int64) ([]float32, error) {
	switch s.part {
	case PartRowHash, PartConsistent:
		row, ok := s.rows[id]
		if !ok {
			return nil, fmt.Errorf("serve: rank %d asked for row %d it does not own", s.rank, id)
		}
		return row, nil
	default: // PartColumn
		if id < 0 || id >= int64(s.vocab) {
			return nil, fmt.Errorf("serve: row %d outside vocab %d", id, s.vocab)
		}
		return s.columns.Row(int(id)), nil
	}
}

// pack copies the shard's payload for ids, in request order, into one fresh
// slice — the reply a handler ships, so it never aliases shard storage that
// a reload may replace.
func (s *shard) pack(ids []int64) ([]float32, error) {
	vals := make([]float32, 0, len(ids)*s.width)
	for _, id := range ids {
		row, err := s.payload(id)
		if err != nil {
			return nil, err
		}
		vals = append(vals, row...)
	}
	return vals, nil
}

// ---------------------------------------------------------------------------
// Owner-addressed fetch protocol.
// ---------------------------------------------------------------------------

// The fetch protocol's two ops. Both use step 0 forever: each (sender, op)
// pair is one ordered stream, so a driver's requests to an owner and that
// owner's replies to the driver are matched by order, and the batch id in
// every message only has to tell a live reply from a stale one.
const (
	opReq  = "serve/req"
	opRows = "serve/rows"
)

// fetchReq asks one owner for its payload of IDs on behalf of a driver's
// batch.
type fetchReq struct {
	Batch int64
	IDs   []int64
}

// fetchResp answers one fetchReq: the owner's payload for every requested id
// in request order — raw in Vals, or encoded by Config.Codec in Wire — or
// the reason the owner could not serve them in Err.
type fetchResp struct {
	Batch int64
	Vals  []float32
	Wire  []byte
	Err   string
}

// SizeBytes is the payload a fetch message carries, for per-op byte
// accounting (metrics.PayloadSize).
func (m fetchReq) SizeBytes() int { return 8 + 8*len(m.IDs) }

// SizeBytes is the payload a fetch reply carries.
func (m fetchResp) SizeBytes() int { return 8 + 4*len(m.Vals) + len(m.Wire) + len(m.Err) }

func init() {
	comm.RegisterWireType(fetchReq{})
	comm.RegisterWireType(fetchResp{})
}

// handle is rank's shard server for one remote driver: receive a request,
// pack the rows it names under the rank's read lock, reply, repeat. It keeps
// no state between requests. A request this shard cannot serve gets an
// error reply; an idle receive timeout just means keep listening. The loop
// ends when the fabric closes or the driver (or this rank) is down.
func (c *Cluster) handle(rank, driver int) {
	cm := c.cms[rank]
	for {
		msg, err := cm.Listen(opReq, 0, driver)
		if errors.Is(err, comm.ErrTimeout) {
			continue
		}
		if err == nil {
			req, ok := msg.(fetchReq)
			if !ok {
				c.fail(fmt.Errorf("serve: rank %d: request payload %T from driver %d", rank, msg, driver))
				continue
			}
			err = cm.Send(opRows, 0, driver, c.answer(rank, req))
		}
		switch {
		case err == nil:
		case errors.Is(err, comm.ErrClosed), errors.Is(err, comm.ErrPeerDown):
			return
		default:
			c.fail(fmt.Errorf("serve: rank %d handler for driver %d: %w", rank, driver, err))
			return
		}
	}
}

// answer packs one request's rows from rank's shard, encoding them when the
// cluster runs a wire codec.
func (c *Cluster) answer(rank int, req fetchReq) fetchResp {
	resp := fetchResp{Batch: req.Batch}
	rs := c.ranks[rank]
	rs.mu.RLock()
	vals, err := rs.shard.pack(req.IDs)
	width := rs.shard.width
	rs.mu.RUnlock()
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	c.packed.Add(int64(len(req.IDs)))
	if c.cfg.Codec == nil {
		resp.Vals = vals
		return resp
	}
	start := time.Now()
	resp.Wire = c.cfg.Codec.AppendShard(nil, req.IDs, vals, width, collective.RowsWhole)
	c.recs[rank].CodecOp(opRows, "encode", 8*len(req.IDs)+4*len(vals), len(resp.Wire), time.Since(start))
	return resp
}
