package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"embrace/internal/checkpoint"
	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/compress"
	"embrace/internal/nn"
	"embrace/internal/optim"
	"embrace/internal/tensor"
	"embrace/internal/trace"
	"embrace/internal/trainer"
)

// probeShape sizes the layer probes after one workload.
type probeShape struct {
	seed                  int64
	tcp                   bool
	ranks                 int
	vocab, embDim, hidden int
	trunkBatch            int // rows one trunk call sees
	shardRows, shardDim   int // one destination's shard of a sparse exchange
	uniqueRows            int // rows one sparse Adam step updates
	msgBytes              int // the transport probe's message size
}

// trainProbeShape derives the probe shapes from a training workload: one
// rank's batch through the trunk, one step's embedding-gradient shard per
// destination, and the coalesced rows of all ranks' batches for Adam.
func trainProbeShape(spec trainSpec, seed int64, msgBytes int) probeShape {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 2, uint64(spec.vocab-2))
	seen := make(map[uint64]struct{})
	for i := 0; i < trainRanks*spec.sentences*spec.window; i++ {
		seen[zipf.Uint64()] = struct{}{}
	}
	return probeShape{
		seed: seed, tcp: spec.tcp, ranks: trainRanks,
		vocab: spec.vocab, embDim: spec.embDim, hidden: spec.hidden,
		trunkBatch: spec.sentences,
		shardRows:  spec.sentences * spec.window, shardDim: spec.embDim / trainRanks,
		uniqueRows: len(seen), msgBytes: msgBytes,
	}
}

// probeBudget is how long each probe repeats its call.
const probeBudget = 250 * time.Millisecond

// medianMS calls fn until budget has passed and it ran at least minCalls
// times, and returns the median milliseconds per call.
func medianMS(minCalls int, fn func() error) (float64, error) {
	var ms []float64
	start := time.Now()
	for len(ms) < minCalls || time.Since(start) < probeBudget {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// probeLayers times each layer's public functions alone at the workload's
// shapes. It runs after the traced segment so it cannot perturb it.
func probeLayers(sh probeShape, out *outcome) error {
	out.values["comm.probe_msg_bytes"] = float64(sh.msgBytes)
	for _, tcp := range []bool{false, true} {
		mbps, msgps, err := streamProbe(tcp, sh.msgBytes)
		if err != nil {
			return fmt.Errorf("comm probe: %w", err)
		}
		name := "mailbox"
		if tcp {
			name = "tcp"
		}
		out.values["comm."+name+".mb_per_s"] = mbps
		out.values["comm."+name+".msgs_per_s"] = msgps
	}
	if err := collectiveProbe(sh, out); err != nil {
		return fmt.Errorf("collective probe: %w", err)
	}
	if err := codecProbe(sh, out); err != nil {
		return fmt.Errorf("compress probe: %w", err)
	}
	if err := modelProbe(sh, out); err != nil {
		return fmt.Errorf("nn/optim/checkpoint probe: %w", err)
	}
	return nil
}

// streamProbe streams messages of size bytes from rank 0 to rank 1 of a
// 2-rank world and returns MB/s and messages/s at the receiver.
func streamProbe(tcp bool, size int) (float64, float64, error) {
	world, err := newFabric(tcp, 2)
	if err != nil {
		return 0, 0, err
	}
	defer world.Close()
	payload := make([]float32, max(1, size/4))
	count := min(20000, max(200, (32<<20)/size))
	sendErr := make(chan error, 1)
	start := time.Now()
	go func() {
		for i := 0; i < count; i++ {
			if err := world.Rank(0).Send(1, 1, payload); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	for i := 0; i < count; i++ {
		if _, err := world.Rank(1).Recv(0, 1); err != nil {
			world.Close()
			<-sendErr
			return 0, 0, err
		}
	}
	sec := time.Since(start).Seconds()
	if err := <-sendErr; err != nil {
		return 0, 0, err
	}
	return float64(count*len(payload)*4) / 1e6 / sec, float64(count) / sec, nil
}

// collectiveIters is how many times each rank repeats each collective.
const collectiveIters = 30

// collectiveProbe times, on the workload's fabric and world size, one
// step's trunk AllReduces (every parameter size) and one step's sparse
// AlltoAll with and without the DeltaRaw codec, as seen at rank 0.
func collectiveProbe(sh probeShape, out *outcome) error {
	world, err := newFabric(sh.tcp, sh.ranks)
	if err != nil {
		return err
	}
	defer world.Close()
	sizes := []int{sh.embDim * sh.hidden, sh.hidden, sh.hidden * sh.vocab, sh.vocab}
	times := make([][3][]float64, sh.ranks)
	errs := make([]error, sh.ranks)
	var wg sync.WaitGroup
	for r := 0; r < sh.ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = collectiveRank(world.Rank(r), sh, sizes, &times[r])
			if errs[r] != nil {
				world.Close()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	out.values["collective.allreduce_ms.trunk"] = median(times[0][0])
	out.values["collective.alltoall_sparse_ms"] = median(times[0][1])
	out.values["collective.alltoall_sparse_codec_ms"] = median(times[0][2])
	return nil
}

func collectiveRank(t comm.Transport, sh probeShape, sizes []int, times *[3][]float64) error {
	cm := collective.NewCommunicator(t, collective.WithChunkBytes(trainer.DefaultChunkBytes))
	bufs := make([][]float32, len(sizes))
	for i, n := range sizes {
		bufs[i] = make([]float32, n)
	}
	rng := rand.New(rand.NewSource(int64(t.Rank()) + 1))
	send := make([]*tensor.Sparse, sh.ranks)
	for p := range send {
		send[p] = randomShard(rng, sh)
	}
	var arena collective.SparseShards
	codec := compress.DeltaRaw{}
	for i := 0; i < collectiveIters; i++ {
		t0 := time.Now()
		for k, buf := range bufs {
			if err := cm.AllReduce(fmt.Sprintf("probe/allreduce/%d", k), i, buf); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if err := cm.AlltoAllSparse("probe/alltoall", i, send, &arena); err != nil {
			return err
		}
		t2 := time.Now()
		if err := cm.AlltoAllSparseCodec("probe/alltoall-codec", i, send, &arena, codec, collective.RowsWhole); err != nil {
			return err
		}
		t3 := time.Now()
		times[0] = append(times[0], float64(t1.Sub(t0))/1e6)
		times[1] = append(times[1], float64(t2.Sub(t1))/1e6)
		times[2] = append(times[2], float64(t3.Sub(t2))/1e6)
	}
	return nil
}

// randomShard builds one destination's sparse shard: Zipf row ids in token
// order (uncoalesced, as the worker sends them) with random values.
func randomShard(rng *rand.Rand, sh probeShape) *tensor.Sparse {
	zipf := rand.NewZipf(rng, 1.3, 2, uint64(sh.vocab-1))
	s := &tensor.Sparse{NumRows: sh.vocab, Dim: sh.shardDim}
	for i := 0; i < sh.shardRows; i++ {
		s.Indices = append(s.Indices, int64(zipf.Uint64()))
	}
	s.Vals = make([]float32, sh.shardRows*sh.shardDim)
	for i := range s.Vals {
		s.Vals[i] = rng.Float32() - 0.5
	}
	return s
}

// codecProbe times DeltaRaw on one shard and reports raw MB/s.
func codecProbe(sh probeShape, out *outcome) error {
	shard := randomShard(rand.New(rand.NewSource(sh.seed)), sh)
	codec := compress.DeltaRaw{}
	var buf []byte
	enc, err := medianMS(20, func() error {
		buf = codec.AppendShard(buf[:0], shard.Indices, shard.Vals, sh.shardDim, collective.RowsWhole)
		return nil
	})
	if err != nil {
		return err
	}
	var idx []int64
	var vals []float32
	dec, err := medianMS(20, func() error {
		var err error
		idx, vals, err = codec.DecodeShard(buf, sh.shardRows, sh.shardDim, idx[:0], vals[:0])
		return err
	})
	if err != nil {
		return err
	}
	for i, v := range vals {
		if v != shard.Vals[i] {
			return fmt.Errorf("%w: delta-raw round trip changed value %d", errIncorrect, i)
		}
	}
	rawMB := float64(sh.shardRows*(8+4*sh.shardDim)) / 1e6
	out.values["compress.delta_raw.encode_mb_per_s"] = rawMB / (enc / 1e3)
	out.values["compress.delta_raw.decode_mb_per_s"] = rawMB / (dec / 1e3)
	return nil
}

// modelProbe times the trunk, Adam and checkpoint layers on the workload's
// model.
func modelProbe(sh probeShape, out *outcome) error {
	model := nn.NewModel(sh.seed, sh.vocab, sh.embDim, sh.hidden)
	rng := rand.New(rand.NewSource(sh.seed))
	pooled := tensor.RandDense(rng, 0.1, sh.trunkBatch, sh.embDim)
	targets := make([]int64, sh.trunkBatch)
	for i := range targets {
		targets[i] = rng.Int63n(int64(sh.vocab))
	}

	var fwd, bwd []float64
	calls := 0
	p0 := sampleProc()
	var grads *nn.TrunkGrads
	for start := time.Now(); calls < 10 || time.Since(start) < probeBudget; calls++ {
		t0 := time.Now()
		_, cache, err := model.Trunk.Forward(pooled, targets)
		if err != nil {
			return err
		}
		t1 := time.Now()
		grads = model.Trunk.Backward(cache)
		fwd = append(fwd, float64(t1.Sub(t0))/1e6)
		bwd = append(bwd, float64(time.Since(t1))/1e6)
	}
	alloc := p0.to(sampleProc()).allocBytes
	out.values["nn.trunk.forward_ms"] = median(fwd)
	out.values["nn.trunk.backward_ms"] = median(bwd)
	out.values["nn.trunk.alloc_kb"] = alloc / float64(calls) / 1024
	infer, err := medianMS(10, func() error {
		_, err := model.Trunk.Infer(pooled)
		return err
	})
	if err != nil {
		return err
	}
	out.values["nn.trunk.infer_ms"] = infer

	params := model.Trunk.Params()
	dense := grads.Dense()
	opts := make([]*optim.Adam, len(params))
	for i, p := range params {
		opts[i] = optim.NewAdamDefault(p.Tensor, 0.01)
	}
	adamDense, err := medianMS(10, func() error {
		for i, o := range opts {
			if err := o.StepDense(dense[i].Tensor); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.values["optim.adam.dense_ms"] = adamDense

	table := tensor.RandDense(rng, 0.1, sh.vocab, sh.shardDim)
	sparseOpt := optim.NewAdamDefault(table, 0.01)
	ids := rng.Perm(sh.vocab)[:min(sh.uniqueRows, sh.vocab)]
	sort.Ints(ids)
	grad := &tensor.Sparse{NumRows: sh.vocab, Dim: sh.shardDim, Vals: make([]float32, len(ids)*sh.shardDim)}
	for _, id := range ids {
		grad.Indices = append(grad.Indices, int64(id))
	}
	for i := range grad.Vals {
		grad.Vals[i] = rng.Float32() - 0.5
	}
	adamSparse, err := medianMS(10, func() error { return sparseOpt.StepSparse(grad) })
	if err != nil {
		return err
	}
	out.values["optim.adam.sparse_ms"] = adamSparse
	return checkpointProbe(modelCheckpoint(model), out)
}

// modelCheckpoint snapshots a model into the serving checkpoint layout:
// the embedding table plus the trunk weights.
func modelCheckpoint(m *nn.Model) *checkpoint.Checkpoint {
	ck := &checkpoint.Checkpoint{Step: 1, Params: map[string]*tensor.Dense{"emb": m.Emb.Table.Clone()}}
	for _, p := range m.Trunk.Params() {
		ck.Params[p.Name] = p.Tensor.Clone()
	}
	return ck
}

// checkpointProbe times Save and Load of ck through memory.
func checkpointProbe(ck *checkpoint.Checkpoint, out *outcome) error {
	var buf bytes.Buffer
	save, err := medianMS(3, func() error {
		buf.Reset()
		return checkpoint.Save(&buf, ck)
	})
	if err != nil {
		return err
	}
	load, err := medianMS(3, func() error {
		_, err := checkpoint.Load(bytes.NewReader(buf.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	out.values["checkpoint.save_ms"] = save
	out.values["checkpoint.load_ms"] = load
	return nil
}

// procRows fills the runtime rows shared by every workload.
func procRows(out *outcome, d procDelta) {
	out.values["proc.gc_cycles_per_s"] = d.gcCycles / d.seconds
	out.values["proc.gc_pause_ms_p99"] = d.gcPauseP99 * 1e3
	out.values["proc.sched_latency_ms_p99"] = d.schedLatP99 * 1e3
}

// traceDir holds the traced runs' span files, inside the build directory
// the checkout ignores.
const traceDir = ".bench_build/traces"

// writeTrace writes every rank's spans as a Chrome trace at the end of the
// traced run.
func writeTrace(workload string, seed int64, recs []*trace.Recorder) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.ExportRecorders(f, workload, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
