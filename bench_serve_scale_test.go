// Serving-plane scale benchmarks: a 4-rank cluster over the real TCP fabric
// serves a closed-loop Zipf workload with 1, 2, and 4 ingress drivers, so
// qps / p50 / p99 price what the driver set buys — concurrent admission,
// per-driver micro-batching, and owner-addressed fetches that never make
// one driver wait on another — and the hot-set hit rate shows how much of
// the Zipf head the replication manager keeps off the fabric.
//
// The sweep is weak scaling: each driver fronts a fixed closed-loop client
// pool, so offered concurrency grows with the driver count while per-driver
// load stays constant. Every configuration is admission-window-bound (the
// client pool never fills MaxBatch, so each batch closes on BatchWindow);
// a single driver serializes those windows, N drivers overlap them. QPS
// should therefore grow ~linearly with drivers at flat latency until the
// host's cores saturate. `make bench-serve-scale` runs these and records
// the numbers in BENCH_serve_scale.json; EXPERIMENTS.md tracks the curve.
package embrace_test

import (
	"fmt"
	"testing"
	"time"

	"embrace/internal/checkpoint"
	"embrace/internal/nn"
	"embrace/internal/serve"
	"embrace/internal/tensor"
)

// serveScale* pin the benchmark's shape: a vocabulary large enough that the
// Zipf tail misses every cache, four ranks, a per-driver client pool small
// enough that batches close on the admission window (never on MaxBatch),
// and a window wide enough that admission — not row fetch — dominates the
// request's life. That makes the single-driver config admission-bound: the
// serialization the driver set exists to remove.
const (
	serveScaleRanks         = 4
	serveScaleVocab         = 4096
	serveScaleDim           = 32
	serveScaleClientsPerDrv = 4
	serveScaleReqsPerClient = 100
	serveScaleWindow        = 2 * time.Millisecond
)

// serveScaleCheckpoint snapshots a freshly seeded model into the serving
// checkpoint layout: embedding table plus trunk weights.
func serveScaleCheckpoint() *checkpoint.Checkpoint {
	m := nn.NewModel(7, serveScaleVocab, serveScaleDim, 16)
	ck := &checkpoint.Checkpoint{
		Step:   1,
		Params: map[string]*tensor.Dense{"emb": m.Emb.Table.Clone()},
	}
	for _, p := range m.Trunk.Params() {
		ck.Params[p.Name] = p.Tensor.Clone()
	}
	return ck
}

// serveScaleLoad is one measured load pass: serveScaleClientsPerDrv clients
// per driver (weak scaling) replaying the same seeded Zipf id streams.
func serveScaleLoad(drivers int) serve.LoadConfig {
	return serve.LoadConfig{
		Clients:       serveScaleClientsPerDrv * drivers,
		Requests:      serveScaleReqsPerClient,
		IDsPerRequest: 4,
		ZipfS:         1.3,
		ZipfV:         2,
		Seed:          1,
	}
}

func benchServeScale(b *testing.B, drivers int) {
	b.Helper()
	c, err := serve.New(serveScaleCheckpoint(), serve.Config{
		Ranks:       serveScaleRanks,
		Drivers:     drivers,
		Partition:   serve.PartConsistent,
		CacheRows:   256,
		HotRows:     256,
		HotPromote:  2,
		MaxBatch:    32,
		BatchWindow: serveScaleWindow,
		QueueDepth:  1024,
		TCP:         true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	// Warm-up pass outside the timed region: promotes the Zipf head into the
	// hot set and grows every TCP buffer to its high-water mark.
	warm := serveScaleLoad(drivers)
	warm.Requests = 30
	if rep := serve.RunLoad(c, warm); rep.Errors > 0 {
		b.Fatalf("warmup errors: %+v", rep)
	}

	var completed int64
	var elapsed time.Duration
	var last serve.LoadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := serve.RunLoad(c, serveScaleLoad(drivers))
		if rep.Errors > 0 {
			b.Fatalf("load errors: %+v", rep)
		}
		completed += rep.Requests - rep.Errors
		elapsed += rep.Elapsed
		last = rep
	}
	b.StopTimer()

	if elapsed > 0 {
		b.ReportMetric(float64(completed)/elapsed.Seconds(), "qps")
	}
	b.ReportMetric(last.Latency.P50*1e3, "p50_ms")
	b.ReportMetric(last.Latency.P99*1e3, "p99_ms")
	st := c.Stats()
	b.ReportMetric(100*st.Hot.HitRate(), "hotpct")
	if err := c.Err(); err != nil {
		b.Fatalf("cluster error: %v", err)
	}
}

func BenchmarkServeScale(b *testing.B) {
	for _, drivers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("drivers=%d", drivers), func(b *testing.B) {
			benchServeScale(b, drivers)
		})
	}
}
