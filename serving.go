package embrace

import (
	"context"
	"fmt"
	"time"

	"embrace/internal/checkpoint"
	"embrace/internal/comm"
	"embrace/internal/serve"
)

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

// Embedding partitioning schemes for serving (§4.1.1 applied to inference).
const (
	// ServeRowHash shards full embedding rows by token-id hash.
	ServeRowHash = serve.PartRowHash
	// ServeColumn gives every rank a 1/N column slice of every row —
	// EmbRace's balanced layout.
	ServeColumn = serve.PartColumn
	// ServeConsistent shards full rows on a consistent-hash ring: like
	// ServeRowHash one rank owns each row, but ownership stays stable when
	// the rank set resizes.
	ServeConsistent = serve.PartConsistent
)

// ServeConfig describes a serving deployment booted from a checkpoint.
type ServeConfig struct {
	// Ranks is the number of serving ranks (default 1); every rank holds an
	// embedding shard, and the first Drivers ranks also front the cluster.
	Ranks int
	// Drivers is how many ranks run their own ingress — admission queue,
	// micro-batcher, hot-row LRU (default 1, clamped to Ranks). Concurrent
	// drivers serve independently: each fetches remote rows straight from
	// the ranks that own them, so drivers never wait on one another.
	Drivers int
	// Partition is ServeRowHash (default), ServeColumn, or ServeConsistent.
	Partition string
	// CacheRows bounds each driver's hot-row LRU cache; 0 disables it.
	CacheRows int
	// Replicate bounds the replicated hot set shared by every driver; 0
	// disables hot-shard replication. Rows the cluster keeps seeing are
	// promoted into it and served by every ingress without touching the
	// fabric; Reload invalidates all replicas.
	Replicate int
	// ReplicatePromote is how many accesses promote a row (default 3).
	ReplicatePromote int
	// TCP serves over real localhost TCP sockets instead of the in-process
	// fabric — the configuration the scale benchmark measures. Incompatible
	// with ChaosSeed.
	TCP bool
	// MaxBatch and BatchWindow control request micro-batching (defaults 32
	// and 200µs): the front end coalesces up to MaxBatch requests arriving
	// within the window and dedups their ids before touching the shards.
	MaxBatch    int
	BatchWindow time.Duration
	// QueueDepth bounds the admission queue (default 256); a full queue
	// fails fast with a typed overload error.
	QueueDepth int
	// ChaosSeed, when non-zero, serves over the deterministic
	// fault-injecting fabric (see TrainConfig.ChaosSeed); the self-healing
	// collectives keep responses bit-identical.
	ChaosSeed int64
	// Trace enables per-rank span recording.
	Trace bool
	// Compress selects the wire codec for the inter-rank row-fetch AlltoAll:
	// "" ships raw index/value streams, "lossless" (alias "delta-raw")
	// delta-varint encodes them and keeps responses bit-identical. Lossy
	// modes are rejected — serving must return the checkpoint's exact rows.
	Compress string
}

func (c ServeConfig) internal() (serve.Config, error) {
	cfg := serve.Config{
		Ranks:       c.Ranks,
		Drivers:     c.Drivers,
		Partition:   c.Partition,
		CacheRows:   c.CacheRows,
		HotRows:     c.Replicate,
		HotPromote:  c.ReplicatePromote,
		MaxBatch:    c.MaxBatch,
		BatchWindow: c.BatchWindow,
		QueueDepth:  c.QueueDepth,
		TCP:         c.TCP,
		Trace:       c.Trace,
	}
	codec, err := sparseCodecFor(c.Compress, 0, 0)
	if err != nil {
		return serve.Config{}, err
	}
	if codec != nil && !codec.Lossless() {
		return serve.Config{}, fmt.Errorf("embrace: serving requires a lossless compression mode, got %q", c.Compress)
	}
	cfg.Codec = codec
	if c.ChaosSeed != 0 {
		plan := comm.MaskableChaosPlan(c.ChaosSeed)
		cfg.Chaos = &plan
	}
	return cfg, nil
}

// Server is a live multi-rank inference deployment. Lookup and Predict are
// safe for concurrent use; stop it with Close.
type Server struct {
	c *serve.Cluster
}

// Serve boots a serving cluster from a checkpoint file written by Train
// (TrainConfig.CheckpointPath). The embedding table is partitioned across
// the ranks, the dense trunk replicated, and the returned server answers
// immediately.
func Serve(checkpointPath string, cfg ServeConfig) (*Server, error) {
	ck, err := checkpoint.LoadFile(checkpointPath)
	if err != nil {
		return nil, err
	}
	icfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	c, err := serve.New(ck, icfg)
	if err != nil {
		return nil, err
	}
	return &Server{c: c}, nil
}

// Lookup resolves the embedding rows of ids, in order (duplicates allowed).
// ctx's deadline becomes the request deadline.
func (s *Server) Lookup(ctx context.Context, ids []int64) ([][]float32, error) {
	return s.c.Lookup(ctx, ids)
}

// Predict mean-pools the window's embedding rows, runs the trunk forward,
// and returns the argmax next token with its probability — bit-identical to
// the training model's forward pass over the served checkpoint.
func (s *Server) Predict(ctx context.Context, window []int64) (int64, float32, error) {
	return s.c.Predict(ctx, window)
}

// Reload atomically swaps in a new checkpoint with zero downtime: in-flight
// batches finish on the old snapshot, the swap happens between batches on
// every rank, and the hot-row cache is invalidated. After Reload returns,
// responses are exactly what a fresh Serve of the new checkpoint would give.
func (s *Server) Reload(checkpointPath string) error {
	ck, err := checkpoint.LoadFile(checkpointPath)
	if err != nil {
		return err
	}
	return s.c.Reload(ck)
}

// Close shuts the deployment down; pending requests fail with a typed
// closed error. Idempotent.
func (s *Server) Close() { s.c.Close() }

// ServeStats is a snapshot of a server's counters. It is the cluster-wide
// aggregate: per-driver counters summed and latency histograms merged
// exactly. DriverStats exposes one ingress's slice of it.
type ServeStats struct {
	// Drivers is how many ingresses the snapshot covers.
	Drivers int
	// Requests admitted, split into Lookups and Predicts.
	Requests, Lookups, Predicts int64
	// Batches processed; Exchanges is how many fetched rows from other
	// ranks.
	Batches, Exchanges int64
	// Coalesced counts duplicate ids removed by within-batch dedup.
	Coalesced int64
	// Packed counts rows packed into cross-rank fetch replies; a
	// workload the drivers satisfy locally (own shard, cache, or hot
	// replicas) keeps it 0.
	Packed int64
	// Overloaded counts fast-failed admissions; Expired deadline drops;
	// Reloads completed checkpoint swaps.
	Overloaded, Expired, Reloads int64
	// CacheHits/CacheMisses/CacheEvictions describe the per-driver LRU
	// caches (summed); CacheHitRate is hits over lookups.
	CacheHits, CacheMisses, CacheEvictions int64
	CacheHitRate                           float64
	// HotResident is how many rows the replicated hot set currently holds;
	// HotHits/HotMisses count replica lookups and HotHitRate their ratio.
	HotResident, HotHits, HotMisses int64
	HotHitRate                      float64
	// LatencyP50/P95/P99 digest request latency (admission to reply).
	LatencyP50, LatencyP95, LatencyP99 time.Duration
}

func statsFrom(st serve.Stats) ServeStats {
	return ServeStats{
		Drivers:        st.Drivers,
		Requests:       st.Requests,
		Lookups:        st.Lookups,
		Predicts:       st.Predicts,
		Batches:        st.Batches,
		Exchanges:      st.Exchanges,
		Coalesced:      st.Coalesced,
		Packed:         st.Packed,
		Overloaded:     st.Overloaded,
		Expired:        st.Expired,
		Reloads:        st.Reloads,
		CacheHits:      st.Cache.Hits,
		CacheMisses:    st.Cache.Misses,
		CacheEvictions: st.Cache.Evictions,
		CacheHitRate:   st.Cache.HitRate(),
		HotResident:    st.Hot.Resident,
		HotHits:        st.Hot.Hits,
		HotMisses:      st.Hot.Misses,
		HotHitRate:     st.Hot.HitRate(),
		LatencyP50:     time.Duration(st.Latency.P50 * float64(time.Second)),
		LatencyP95:     time.Duration(st.Latency.P95 * float64(time.Second)),
		LatencyP99:     time.Duration(st.Latency.P99 * float64(time.Second)),
	}
}

// Stats snapshots the server's cluster-wide counters.
func (s *Server) Stats() ServeStats { return statsFrom(s.c.Stats()) }

// Drivers returns the number of ingress drivers serving.
func (s *Server) Drivers() int { return s.c.Drivers() }

// DriverStats snapshots one ingress's own counters (cluster-level fields —
// Packed, Reloads, hot set — are zero in this view).
func (s *Server) DriverStats(d int) ServeStats { return statsFrom(s.c.DriverStats(d)) }

// LoadSpec parameterizes a closed-loop Zipf load run against a server: each
// of Clients goroutines issues Requests back-to-back.
type LoadSpec struct {
	// Clients and Requests shape the run (defaults 4 and 100).
	Clients, Requests int
	// IDsPerRequest is the lookup size / predict window (default 4).
	IDsPerRequest int
	// Predict switches the workload from Lookup to Predict.
	Predict bool
	// ZipfS and ZipfV shape the id skew (defaults 1.3, 2).
	ZipfS, ZipfV float64
	// Seed makes the id streams deterministic.
	Seed int64
	// Timeout, when positive, attaches a per-request deadline.
	Timeout time.Duration
}

// DriverLoadResult is one ingress's share of a load run.
type DriverLoadResult struct {
	// Driver is the ingress index; Requests and Errors its traffic.
	Driver           int
	Requests, Errors int64
	// QPS and P50/P99 latency as this driver's clients saw them.
	QPS      float64
	P50, P99 time.Duration
}

// LoadResult reports a completed load run. Top-level numbers aggregate every
// driver (latency percentiles from an exact histogram merge); PerDriver
// breaks the run down by ingress.
type LoadResult struct {
	// Requests issued; Errors failed, with Overloaded and Expired broken out.
	Requests, Errors, Overloaded, Expired int64
	// Elapsed wall clock and completed requests per second.
	Elapsed time.Duration
	QPS     float64
	// P50/P99/Max request latency as the clients saw it.
	P50, P99, Max time.Duration
	// PerDriver has one entry per ingress, in driver order.
	PerDriver []DriverLoadResult
}

// String renders the result for logs.
func (r LoadResult) String() string {
	return fmt.Sprintf("req=%d err=%d qps=%.0f p50=%s p99=%s max=%s drivers=%d",
		r.Requests, r.Errors, r.QPS, r.P50, r.P99, r.Max, len(r.PerDriver))
}

// RunLoad fires the closed-loop workload at the server and reports
// throughput and latency percentiles.
func (s *Server) RunLoad(spec LoadSpec) LoadResult {
	rep := serve.RunLoad(s.c, serve.LoadConfig{
		Clients:       spec.Clients,
		Requests:      spec.Requests,
		IDsPerRequest: spec.IDsPerRequest,
		Predict:       spec.Predict,
		ZipfS:         spec.ZipfS,
		ZipfV:         spec.ZipfV,
		Seed:          spec.Seed,
		Timeout:       spec.Timeout,
	})
	res := LoadResult{
		Requests:   rep.Requests,
		Errors:     rep.Errors,
		Overloaded: rep.Overloaded,
		Expired:    rep.Expired,
		Elapsed:    rep.Elapsed,
		QPS:        rep.QPS,
		P50:        time.Duration(rep.Latency.P50 * float64(time.Second)),
		P99:        time.Duration(rep.Latency.P99 * float64(time.Second)),
		Max:        time.Duration(rep.Latency.Max * float64(time.Second)),
	}
	for _, dl := range rep.PerDriver {
		res.PerDriver = append(res.PerDriver, DriverLoadResult{
			Driver:   dl.Driver,
			Requests: dl.Requests,
			Errors:   dl.Errors,
			QPS:      dl.QPS,
			P50:      time.Duration(dl.Latency.P50 * float64(time.Second)),
			P99:      time.Duration(dl.Latency.P99 * float64(time.Second)),
		})
	}
	return res
}
