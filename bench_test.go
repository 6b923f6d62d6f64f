// Benchmarks regenerating each of the paper's tables and figures (one bench
// per artifact, the regeneration entry points EXPERIMENTS.md indexes), plus
// micro-benchmarks of the communication substrates EmbRace is built from.
package embrace_test

import (
	"io"
	"math/rand"
	"testing"

	"embrace"
	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/sched"
	"embrace/internal/tensor"
	"embrace/internal/trace"
)

// benchExperiment runs one experiment harness per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := embrace.RunExperiment(id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1ModelSizes(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkTable2CommCosts(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkTable3GradientSizes(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkFigure1SparseMovement(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFigure4SparsitySweep(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFigure6Timelines(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFigure7EndToEnd(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFigure8ComputationStall(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFigure9Ablation(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFigure10Scaling(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFigure11Convergence(b *testing.B)     { benchExperiment(b, "fig11") }

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------------

func BenchmarkRingAllReduce8x64K(b *testing.B) {
	const ranks, elems = 8, 65536
	b.SetBytes(int64(elems * tensor.BytesPerElem))
	for i := 0; i < b.N; i++ {
		err := comm.RunRanks(ranks, func(t comm.Transport) error {
			buf := make([]float32, elems)
			return collective.NewCommunicator(t).AllReduce("bench/allreduce", 0, buf)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchAllReduce64MB times a 64 MB dense AllReduce across a persistent
// 4-rank world. Each rank runs one untimed warm-up exchange, all ranks
// rendezvous, and only then does the timed region begin — so allocs/op
// reflects steady state, not world setup.
func benchAllReduce64MB(b *testing.B, chunkBytes int, op func(t comm.Transport, cm *collective.Communicator, buf []float32) error) {
	b.Helper()
	const ranks = 4
	const elems = (64 << 20) / tensor.BytesPerElem
	b.SetBytes(64 << 20)
	b.ReportAllocs()
	ready := make(chan struct{}, ranks)
	start := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- comm.RunRanks(ranks, func(t comm.Transport) error {
			cm := collective.NewCommunicator(t, collective.WithChunkBytes(chunkBytes))
			buf := make([]float32, elems)
			if err := op(t, cm, buf); err != nil {
				return err
			}
			ready <- struct{}{}
			<-start
			for i := 0; i < b.N; i++ {
				if err := op(t, cm, buf); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	for i := 0; i < ranks; i++ {
		<-ready
	}
	b.ResetTimer()
	close(start)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCommunicatorAllReduce64MB exercises the stateful Communicator
// with pooled scratch buffers reused across calls, at the same message
// framing as the legacy path (no chunking) so allocs/op isolates pooling.
func BenchmarkCommunicatorAllReduce64MB(b *testing.B) {
	benchAllReduce64MB(b, -1, func(_ comm.Transport, cm *collective.Communicator, buf []float32) error {
		return cm.AllReduce("bench/allreduce", 0, buf)
	})
}

// BenchmarkCommunicatorAllReduce64MBChunked adds 1 MB segment pipelining on
// top of pooling: many more (boxed) messages per op, but segments overlap
// combine with transfer.
func BenchmarkCommunicatorAllReduce64MBChunked(b *testing.B) {
	benchAllReduce64MB(b, 1<<20, func(_ comm.Transport, cm *collective.Communicator, buf []float32) error {
		return cm.AllReduce("bench/allreduce", 0, buf)
	})
}

// BenchmarkColdCommunicatorAllReduce64MB runs the identical exchange through
// a throwaway Communicator (cold buffer pool) built on every call — the cost
// the deleted legacy free functions paid; compare allocs/op against
// BenchmarkCommunicatorAllReduce64MB.
func BenchmarkColdCommunicatorAllReduce64MB(b *testing.B) {
	benchAllReduce64MB(b, -1, func(t comm.Transport, _ *collective.Communicator, buf []float32) error {
		return collective.NewCommunicator(t).AllReduce("bench/allreduce", 0, buf)
	})
}

func BenchmarkAllToAll8Ranks(b *testing.B) {
	const ranks, elems = 8, 8192
	b.SetBytes(int64(elems * tensor.BytesPerElem))
	for i := 0; i < b.N; i++ {
		err := comm.RunRanks(ranks, func(t comm.Transport) error {
			send := make([][]float32, ranks)
			for p := range send {
				send[p] = make([]float32, elems/ranks)
			}
			_, err := collective.AllToAllVia(collective.NewCommunicator(t), "bench/alltoall", 0, send)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseAllGather8Ranks(b *testing.B) {
	const ranks, rows, dim = 8, 512, 64
	locals := make([]*tensor.Sparse, ranks)
	rng := rand.New(rand.NewSource(1))
	for r := range locals {
		idx := make([]int64, rows)
		vals := make([]float32, rows*dim)
		for i := range idx {
			idx[i] = int64(rng.Intn(8192))
		}
		s, err := tensor.NewSparse(8192, dim, idx, vals)
		if err != nil {
			b.Fatal(err)
		}
		locals[r] = s
	}
	b.SetBytes(int64(locals[0].SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := comm.RunRanks(ranks, func(t comm.Transport) error {
			_, err := collective.NewCommunicator(t).SparseAllGather("bench/sparse-ag", 0, locals[t.Rank()])
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoalesce(b *testing.B) {
	const rows, dim = 4096, 64
	rng := rand.New(rand.NewSource(2))
	idx := make([]int64, rows)
	vals := make([]float32, rows*dim)
	for i := range idx {
		idx[i] = int64(rng.Intn(1024)) // heavy duplication
	}
	s, err := tensor.NewSparse(65536, dim, idx, vals)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(s.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Coalesce()
	}
}

func BenchmarkVerticalSplit(b *testing.B) {
	const rows, dim = 4096, 64
	rng := rand.New(rand.NewSource(3))
	idx := make([]int64, rows)
	vals := make([]float32, rows*dim)
	for i := range idx {
		idx[i] = int64(rng.Intn(8192))
	}
	g, err := tensor.NewSparse(65536, dim, idx, vals)
	if err != nil {
		b.Fatal(err)
	}
	next := make([]int64, 2048)
	for i := range next {
		next[i] = int64(rng.Intn(8192))
	}
	nextU := tensor.UniqueInt64(next)
	cur := g.UniqueIndices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.VerticalSplit(g, cur, nextU)
	}
}

func BenchmarkRealTrainingStepEmbRace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := embrace.Train(embrace.TrainConfig{
			Strategy: embrace.EmbRace,
			Sched:    embrace.Sched2D,
			Workers:  4,
			Steps:    2,
			Vocab:    500,
			EmbDim:   16,
			Hidden:   16,
			Adam:     true,
			Seed:     int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceRecorderSpan measures the cost of one Begin/End pair on a
// live recorder — the per-span overhead tracing adds to an instrumented
// phase.
func BenchmarkTraceRecorderSpan(b *testing.B) {
	r := trace.NewRecorder(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Begin(trace.TrackCompute, "fp", i).End()
		if i%(1<<16) == 0 {
			b.StopTimer()
			r.Reset() // bound the span slice so memory doesn't skew timing
			b.StartTimer()
		}
	}
}

// BenchmarkTraceRecorderDisabled measures the same pair on a nil recorder —
// the cost a tracing-off run pays at every instrumentation point, which must
// stay at pointer-check noise level.
func BenchmarkTraceRecorderDisabled(b *testing.B) {
	var r *trace.Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Begin(trace.TrackCompute, "fp", i).End()
	}
}

func BenchmarkPartitionAblation(b *testing.B) { benchExperiment(b, "partition") }

func BenchmarkGiantModelExtension(b *testing.B) { benchExperiment(b, "giant") }

func BenchmarkTCPRingAllReduce4x16K(b *testing.B) {
	const ranks, elems = 4, 16384
	b.SetBytes(int64(elems * tensor.BytesPerElem))
	for i := 0; i < b.N; i++ {
		err := comm.RunRanksTCP(ranks, func(t comm.Transport) error {
			buf := make([]float32, elems)
			return collective.NewCommunicator(t).AllReduce("bench/allreduce", 0, buf)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The chaos wrapper's ping-pong overhead benchmarks
// (BenchmarkChaosOverheadBare / BenchmarkChaosOverheadEmptyPlan) live in
// internal/comm, next to the transport they price.

// BenchmarkChaosOverheadMaskedAllReduce prices the full self-healing stack
// under active fault injection: an 8-rank AllReduce over the standard
// maskable plan, faults masked by retry and sequence framing.
func BenchmarkChaosOverheadMaskedAllReduce(b *testing.B) {
	const ranks, elems = 8, 65536
	b.SetBytes(int64(elems * tensor.BytesPerElem))
	for i := 0; i < b.N; i++ {
		err := comm.RunRanksChaos(ranks, comm.MaskableChaosPlan(int64(i+1)), func(t comm.Transport) error {
			buf := make([]float32, elems)
			return collective.NewCommunicator(t).AllReduce("bench/allreduce", 0, buf)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBandwidthSensitivity(b *testing.B) { benchExperiment(b, "bandwidth") }

func BenchmarkBatchSensitivity(b *testing.B) { benchExperiment(b, "batch") }

func BenchmarkFigure5DependencyGraph(b *testing.B) { benchExperiment(b, "fig5") }
