package strategies

import (
	"fmt"

	"embrace/internal/collective"
	"embrace/internal/nn"
	"embrace/internal/optim"
	"embrace/internal/sched"
	"embrace/internal/tensor"
	"embrace/internal/trace"
)

// gruWorker trains the recurrent model (Config.Recurrent) data-parallel
// under HorovodAllGather: a full nn.SeqModel replica per rank, dense
// gradients by ring AllReduce, and the per-token sparse embedding gradient —
// one row per token position, duplicates included — by sparse AllGather.
// Without Sched2D the gradient is coalesced locally and gathered whole; with
// it, Algorithm 1 splits the gradient against the gathered next batch, and
// the prior and delayed parts are gathered and applied as the two calls of
// the modified Adam.
type gruWorker struct {
	cm     *collective.Communicator
	cfg    Config
	rec    *trace.Recorder // per-rank span recorder; nil disables tracing
	model  *nn.SeqModel
	opts   map[string]optim.Optimizer
	embOpt optim.Optimizer
}

func newGRUWorker(cm *collective.Communicator, cfg Config, rec *trace.Recorder) *gruWorker {
	m := nn.NewSeqModel(cfg.Seed, cfg.Vocab, cfg.EmbDim, cfg.Hidden)
	warmStart(cfg, m.Emb, m.Params())
	opts := make(map[string]optim.Optimizer)
	for _, p := range m.Params() {
		opts[p.Name] = newOptimizer(cfg, p.Tensor)
	}
	return &gruWorker{
		cm:     cm,
		cfg:    cfg,
		rec:    rec,
		model:  m,
		opts:   opts,
		embOpt: newOptimizer(cfg, m.Emb.Table),
	}
}

func (w *gruWorker) Strategy() Name { return HorovodAllGather }

func (w *gruWorker) DenseParams() []nn.NamedParam { return w.model.Params() }

func (w *gruWorker) FullEmbedding() (*tensor.Dense, error) { return w.model.Emb.Table, nil }

func (w *gruWorker) Step(step int, windows [][]int64, targets []int64, nextTokens []int64) (nn.StepStats, error) {
	sp := w.rec.Begin(trace.TrackCompute, SpanFPBP, step)
	stats, embGrad, dense, err := w.model.Step(windows, targets)
	sp.End()
	if err != nil {
		return nn.StepStats{}, err
	}
	for _, p := range w.model.Params() {
		sp := w.rec.Begin(trace.TrackCompute, SpanDense(p.Name), step)
		g := dense[p.Name]
		if err := w.cm.AllReduce(OpDense(p.Name), step, g.Data()); err != nil {
			return nn.StepStats{}, fmt.Errorf("dense %s: %w", p.Name, err)
		}
		if err := w.opts[p.Name].StepDense(g); err != nil {
			return nn.StepStats{}, fmt.Errorf("dense %s update: %w", p.Name, err)
		}
		sp.End()
	}

	if w.cfg.Sched != Sched2D {
		// Coalesce locally before shipping (as PyTorch does): fewer wire
		// bytes, and the same per-rank summation grouping the split path
		// uses, so both paths stay bit-identical.
		sp = w.rec.Begin(trace.TrackCompute, SpanEmbExchange, step)
		merged, err := w.cm.SparseAllGather(OpEmbGrad, step, embGrad.Coalesce())
		if err != nil {
			return nn.StepStats{}, fmt.Errorf("embedding allgather: %w", err)
		}
		sp.End()
		sp = w.rec.Begin(trace.TrackCompute, SpanEmbUpdate, step)
		if err := w.embOpt.StepSparse(merged); err != nil {
			return nn.StepStats{}, fmt.Errorf("embedding update: %w", err)
		}
		sp.End()
		return stats, nil
	}

	// Algorithm 1 splits against the GATHERED next batch: a row is prior
	// only with the same verdict on every rank, keeping the merged prior
	// and delayed parts disjoint (the modified-Adam exactness condition).
	allNext, err := collective.AllGatherVia(w.cm, OpNextBatch, step, tensor.UniqueInt64(nextTokens))
	if err != nil {
		return nn.StepStats{}, fmt.Errorf("next-batch gather: %w", err)
	}
	var nextAll []int64
	for _, ns := range allNext {
		nextAll = append(nextAll, ns...)
	}
	sp = w.rec.Begin(trace.TrackCompute, SpanVSplit, step)
	prior, delayed := sched.VerticalSplit(embGrad, embGrad.UniqueIndices(), tensor.UniqueInt64(nextAll))
	sp.End()
	sp = w.rec.Begin(trace.TrackCompute, SpanPriorExchange, step)
	mergedPrior, err := w.cm.SparseAllGather(OpEmbPrior, step, prior)
	if err != nil {
		return nn.StepStats{}, fmt.Errorf("prior allgather: %w", err)
	}
	sp.End()
	sp = w.rec.Begin(trace.TrackCompute, SpanPriorUpdate, step)
	if err := stepPartial(w.embOpt, mergedPrior, false); err != nil {
		return nn.StepStats{}, fmt.Errorf("prior update: %w", err)
	}
	sp.End()
	sp = w.rec.Begin(trace.TrackCompute, SpanDelayedExchange, step)
	mergedDelayed, err := w.cm.SparseAllGather(OpEmbDelayed, step, delayed)
	if err != nil {
		return nn.StepStats{}, fmt.Errorf("delayed allgather: %w", err)
	}
	sp.End()
	sp = w.rec.Begin(trace.TrackCompute, SpanEmbUpdate, step)
	if err := stepPartial(w.embOpt, mergedDelayed, true); err != nil {
		return nn.StepStats{}, fmt.Errorf("delayed update: %w", err)
	}
	sp.End()
	return stats, nil
}
