// Package nn implements the real-arithmetic neural network used by the
// convergence experiments (Figure 11) and by the real-execution trainer.
//
// The paper trains full-size NLP models on GPUs; here a compact next-token
// prediction model stands in: a word embedding whose pooled vectors feed a
// two-layer MLP with a softmax cross-entropy head. That is deliberately the
// smallest architecture with the structure EmbRace cares about — a large
// sparse embedding in front of a dense trunk — so every communication
// strategy (AllReduce, AllGather, PS, EmbRace's AlltoAll with column-wise
// model parallelism) exercises its real data path, and the modified-Adam
// convergence claim (§5.7) can be tested with actual arithmetic.
//
// The embedding is split from the dense trunk at the pooled-vector boundary:
// the trunk consumes a [batch x embDim] activation and returns its gradient,
// so the same trunk composes with a locally held full embedding (the
// baselines) or with column-partitioned shards assembled by AlltoAll
// (EmbRace).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"embrace/internal/tensor"
)

// Embedding is a dense [vocab x dim] lookup table whose gradients are
// row-sparse, the defining property of the models the paper targets (§2.1).
type Embedding struct {
	Table *tensor.Dense
}

// NewEmbedding creates an embedding with uniform Xavier-style init.
func NewEmbedding(rng *rand.Rand, vocab, dim int) *Embedding {
	scale := float32(math.Sqrt(3.0 / float64(dim)))
	return &Embedding{Table: tensor.RandDense(rng, scale, vocab, dim)}
}

// Vocab returns the number of rows.
func (e *Embedding) Vocab() int { return e.Table.Dim(0) }

// Dim returns the embedding width.
func (e *Embedding) Dim() int { return e.Table.Dim(1) }

// PoolLookup returns the mean of the embedding rows of each token window:
// out[i] = mean_j Table[tokens[i][j]]. Shape [len(tokens) x dim].
func (e *Embedding) PoolLookup(tokens [][]int64) *tensor.Dense {
	dim := e.Dim()
	out := tensor.NewDense(len(tokens), dim)
	for i, window := range tokens {
		dst := out.Row(i)
		if len(window) == 0 {
			continue
		}
		inv := 1 / float32(len(window))
		for _, tok := range window {
			src := e.Table.Row(int(tok))
			for d := 0; d < dim; d++ {
				dst[d] += src[d] * inv
			}
		}
	}
	return out
}

// PoolBackward converts the gradient of the pooled vectors into a row-sparse
// embedding gradient: each token of window i receives gradPooled[i]/|window|.
// The result is deliberately uncoalesced — duplicate tokens yield duplicate
// rows — exactly the raw gradient Algorithm 1 starts from.
func (e *Embedding) PoolBackward(tokens [][]int64, gradPooled *tensor.Dense) *tensor.Sparse {
	return PoolBackwardDims(e.Vocab(), e.Dim(), tokens, gradPooled)
}

// PoolBackwardDims is PoolBackward for a logical [vocab x dim] embedding;
// the gradient depends only on the window structure, not the table values,
// so no table is needed.
func PoolBackwardDims(vocab, dim int, tokens [][]int64, gradPooled *tensor.Dense) *tensor.Sparse {
	dst := &tensor.Sparse{}
	PoolBackwardInto(vocab, dim, tokens, gradPooled, dst)
	return dst
}

// PoolBackwardInto is PoolBackwardDims writing into a reused destination:
// dst's backing arrays grow to their high-water mark once and every later
// call appends into them, so the steady-state gradient build allocates
// nothing. Row order and arithmetic are identical to PoolBackwardDims.
//
//embrace:hotpath
func PoolBackwardInto(vocab, dim int, tokens [][]int64, gradPooled *tensor.Dense, dst *tensor.Sparse) {
	dst.Reset()
	dst.NumRows, dst.Dim = vocab, dim
	for i, window := range tokens {
		if len(window) == 0 {
			continue
		}
		inv := 1 / float32(len(window))
		g := gradPooled.Row(i)
		for _, tok := range window {
			if tok < 0 || tok >= int64(vocab) {
				// Tokens are validated upstream by the data generator; an
				// invalid index here is a programming error, not input error.
				panic(fmt.Sprintf("nn: PoolBackward: token %d out of range [0,%d)", tok, vocab))
			}
			dst.Indices = append(dst.Indices, tok)
			for d := 0; d < dim; d++ {
				dst.Vals = append(dst.Vals, g[d]*inv)
			}
		}
	}
}

// Trunk is the dense part of the model: pooled -> Linear -> ReLU -> Linear
// -> softmax cross-entropy over the vocabulary.
type Trunk struct {
	W1 *tensor.Dense // [embDim x hidden]
	B1 *tensor.Dense // [hidden]
	W2 *tensor.Dense // [hidden x vocab]
	B2 *tensor.Dense // [vocab]
}

// NewTrunk creates a trunk with Xavier-style uniform init.
func NewTrunk(rng *rand.Rand, embDim, hidden, vocab int) *Trunk {
	s1 := float32(math.Sqrt(6.0 / float64(embDim+hidden)))
	s2 := float32(math.Sqrt(6.0 / float64(hidden+vocab)))
	return &Trunk{
		W1: tensor.RandDense(rng, s1, embDim, hidden),
		B1: tensor.NewDense(hidden),
		W2: tensor.RandDense(rng, s2, hidden, vocab),
		B2: tensor.NewDense(vocab),
	}
}

// Params returns the trunk's parameter tensors in a stable order, keyed for
// the optimizer and the dense gradient exchange.
func (t *Trunk) Params() []NamedParam {
	return []NamedParam{
		{"w1", t.W1}, {"b1", t.B1}, {"w2", t.W2}, {"b2", t.B2},
	}
}

// NamedParam pairs a parameter tensor with a stable name.
type NamedParam struct {
	Name   string
	Tensor *tensor.Dense
}

// TrunkGrads holds the dense gradients of one backward pass, plus the
// gradient flowing back into the pooled embedding activations.
type TrunkGrads struct {
	W1, B1, W2, B2 *tensor.Dense
	Pooled         *tensor.Dense
}

// Dense returns the trunk gradients in the same stable order as
// Trunk.Params.
func (g *TrunkGrads) Dense() []NamedParam {
	return []NamedParam{
		{"w1", g.W1}, {"b1", g.B1}, {"w2", g.W2}, {"b2", g.B2},
	}
}

// forwardCache keeps the activations Backward needs.
type forwardCache struct {
	pooled  *tensor.Dense
	hidden  *tensor.Dense // post-ReLU
	probs   *tensor.Dense // softmax output
	targets []int64
}

// Correct returns the number of batch rows whose most probable token equals
// the target — the top-1 next-token accuracy used as the translation-score
// stand-in in the Figure-11(b) convergence experiment.
func (c *forwardCache) Correct() int {
	correct := 0
	for i, want := range c.targets {
		row := c.probs.Row(i)
		best := 0
		for v := 1; v < len(row); v++ {
			if row[v] > row[best] {
				best = v
			}
		}
		if int64(best) == want {
			correct++
		}
	}
	return correct
}

// TrunkScratch owns every buffer of one trunk forward/backward pass: the
// activations Backward reads, the batch's logit gradients, the dHidden
// accumulators and the gradient tensors. Each buffer grows to its
// high-water mark on first use and is reused by every later pass, so a
// steady-state ForwardInto + BackwardInto allocates nothing. The cache
// ForwardInto returns and the gradients BackwardInto returns are views into
// the scratch, valid until its next ForwardInto or BackwardInto. The zero
// value is ready to use; a scratch serves one pass at a time.
type TrunkScratch struct {
	hidden, probs tensor.Dense
	cache         forwardCache

	dLogits []float32 // [batch x vocab]
	dHidden []float32 // [batch x hidden]

	gW1, gB1, gW2, gB2, gPooled tensor.Dense
	grads                       TrunkGrads
}

// trunkTile is the vocabulary tile width of the blocked W2 kernels. One tile
// of every W2 row (hidden x trunkTile floats) stays cache-resident while
// every batch row streams through it, so each weight matrix crosses the
// memory bus once per batch instead of once per batch row.
const trunkTile = 256

// The blocked kernels below perform exactly the float operations of the
// naive row-at-a-time loops, in the same per-element order; only the loop
// nest around them changes. Each output element still accumulates its terms
// left to right in ascending order — logits[i][v] adds B2[v], then
// h[i][j]*W2[j][v] for j ascending; gW2[j][v] adds h[i][j]*dLogits[i][v]
// for i ascending onto zero; dHidden[i][j] adds W2[j][v]*dLogits[i][v] for v
// ascending onto zero — and `a = a + p0 + p1 + p2 + p3` is left-associative
// in Go, so unrolling four terms into one statement performs the same
// roundings, in the same order, as four separate statements. The results
// are therefore bit-identical to the naive loops, which
// TestTrunkKernelsMatchNaiveOracle checks with math.Float32bits.

// logitsKernel fills out[i][v] = B2[v] + sum_j h[i][j]*W2[j][v], tiled over
// the vocabulary and unrolled four hidden units at a time.
func logitsKernel(w2, b2, hidden, out []float32, batch, hiddenDim, vocab int) {
	for v0 := 0; v0 < vocab; v0 += trunkTile {
		v1 := min(v0+trunkTile, vocab)
		for i := 0; i < batch; i++ {
			h := hidden[i*hiddenDim : (i+1)*hiddenDim]
			lg := out[i*vocab+v0 : i*vocab+v1]
			copy(lg, b2[v0:v1])
			j := 0
			for ; j+4 <= hiddenDim; j += 4 {
				h0, h1, h2, h3 := h[j], h[j+1], h[j+2], h[j+3]
				w0 := w2[j*vocab+v0 : j*vocab+v1][:len(lg)]
				w1 := w2[(j+1)*vocab+v0 : (j+1)*vocab+v1][:len(lg)]
				w2j := w2[(j+2)*vocab+v0 : (j+2)*vocab+v1][:len(lg)]
				w3 := w2[(j+3)*vocab+v0 : (j+3)*vocab+v1][:len(lg)]
				for v := range lg {
					lg[v] = lg[v] + h0*w0[v] + h1*w1[v] + h2*w2j[v] + h3*w3[v]
				}
			}
			for ; j < hiddenDim; j++ {
				hj := h[j]
				w := w2[j*vocab+v0 : j*vocab+v1][:len(lg)]
				for v := range lg {
					lg[v] += hj * w[v]
				}
			}
		}
	}
}

// w2GradKernel accumulates the B2 and W2 gradients and the raw (pre-ReLU-
// mask) dHidden dot products of a whole batch onto zeroed gb2, gw2 and dh,
// tiled over the vocabulary and unrolled four batch rows at a time: each
// pass over a W2 tile updates gW2 with four rows' terms and advances four
// independent dHidden accumulators, one per row.
func w2GradKernel(tw2, gw2, gb2, hidden, dl, dh []float32, batch, hiddenDim, vocab int) {
	for v0 := 0; v0 < vocab; v0 += trunkTile {
		v1 := min(v0+trunkTile, vocab)
		gb := gb2[v0:v1]
		i := 0
		for ; i+4 <= batch; i += 4 {
			d0 := dl[i*vocab+v0 : i*vocab+v1][:len(gb)]
			d1 := dl[(i+1)*vocab+v0 : (i+1)*vocab+v1][:len(gb)]
			d2 := dl[(i+2)*vocab+v0 : (i+2)*vocab+v1][:len(gb)]
			d3 := dl[(i+3)*vocab+v0 : (i+3)*vocab+v1][:len(gb)]
			for v := range gb {
				gb[v] = gb[v] + d0[v] + d1[v] + d2[v] + d3[v]
			}
		}
		for ; i < batch; i++ {
			d := dl[i*vocab+v0 : i*vocab+v1][:len(gb)]
			for v := range gb {
				gb[v] += d[v]
			}
		}
		for j := 0; j < hiddenDim; j++ {
			g := gw2[j*vocab+v0 : j*vocab+v1]
			w := tw2[j*vocab+v0 : j*vocab+v1][:len(g)]
			i := 0
			for ; i+4 <= batch; i += 4 {
				h0, h1 := hidden[i*hiddenDim+j], hidden[(i+1)*hiddenDim+j]
				h2, h3 := hidden[(i+2)*hiddenDim+j], hidden[(i+3)*hiddenDim+j]
				d0 := dl[i*vocab+v0 : i*vocab+v1][:len(g)]
				d1 := dl[(i+1)*vocab+v0 : (i+1)*vocab+v1][:len(g)]
				d2 := dl[(i+2)*vocab+v0 : (i+2)*vocab+v1][:len(g)]
				d3 := dl[(i+3)*vocab+v0 : (i+3)*vocab+v1][:len(g)]
				a0, a1 := dh[i*hiddenDim+j], dh[(i+1)*hiddenDim+j]
				a2, a3 := dh[(i+2)*hiddenDim+j], dh[(i+3)*hiddenDim+j]
				for v := range g {
					g[v] = g[v] + h0*d0[v] + h1*d1[v] + h2*d2[v] + h3*d3[v]
					wv := w[v]
					a0 += wv * d0[v]
					a1 += wv * d1[v]
					a2 += wv * d2[v]
					a3 += wv * d3[v]
				}
				dh[i*hiddenDim+j], dh[(i+1)*hiddenDim+j] = a0, a1
				dh[(i+2)*hiddenDim+j], dh[(i+3)*hiddenDim+j] = a2, a3
			}
			for ; i < batch; i++ {
				hi := hidden[i*hiddenDim+j]
				d := dl[i*vocab+v0 : i*vocab+v1][:len(g)]
				a := dh[i*hiddenDim+j]
				for v := range g {
					g[v] += hi * d[v]
					a += w[v] * d[v]
				}
				dh[i*hiddenDim+j] = a
			}
		}
	}
}

// forward runs the trunk's forward arithmetic into s: pooled -> hidden
// (post-ReLU) -> softmax probabilities. It is the single implementation
// behind ForwardInto (training, which also needs hidden for Backward) and
// Infer (serving), so a served prediction is bit-identical to what the
// training path would compute from the same activations by construction.
//
//embrace:hotpath
func (t *Trunk) forward(pooled *tensor.Dense, s *TrunkScratch) error {
	batch := pooled.Dim(0)
	embDim, hiddenDim := t.W1.Dim(0), t.W1.Dim(1)
	vocab := t.W2.Dim(1)
	if pooled.Dim(1) != embDim {
		return fmt.Errorf("nn: pooled width %d != embDim %d", pooled.Dim(1), embDim)
	}
	s.hidden.Reuse(batch, hiddenDim)
	s.probs.Reuse(batch, vocab)

	// The small first layer runs row-major over contiguous W1 rows: element
	// (i, j) accumulates B1[j] then x[k]*W1[k][j] for k ascending.
	b1 := t.B1.Data()
	for i := 0; i < batch; i++ {
		x := pooled.Row(i)
		h := s.hidden.Row(i)
		copy(h, b1)
		for k := 0; k < embDim; k++ {
			xk := x[k]
			w1row := t.W1.Row(k)
			for j := 0; j < hiddenDim; j++ {
				h[j] += xk * w1row[j]
			}
		}
		for j := 0; j < hiddenDim; j++ {
			if h[j] < 0 { // ReLU
				h[j] = 0
			}
		}
	}

	logitsKernel(t.W2.Data(), t.B2.Data(), s.hidden.Data(), s.probs.Data(), batch, hiddenDim, vocab)
	for i := 0; i < batch; i++ {
		// Numerically stable softmax.
		logits := s.probs.Row(i)
		maxL := logits[0]
		for _, l := range logits[1:] {
			if l > maxL {
				maxL = l
			}
		}
		var sum float64
		for v := range logits {
			ex := math.Exp(float64(logits[v] - maxL))
			sum += ex
			logits[v] = float32(ex)
		}
		inv := float32(1 / sum)
		for v := range logits {
			logits[v] *= inv
		}
	}
	return nil
}

// Infer returns the softmax probability distribution for each pooled row,
// shape [batch x vocab] — the inference entry point, with no targets and no
// gradient bookkeeping.
func (t *Trunk) Infer(pooled *tensor.Dense) (*tensor.Dense, error) {
	s := new(TrunkScratch)
	if err := t.forward(pooled, s); err != nil {
		return nil, err
	}
	return &s.probs, nil
}

// Forward computes mean cross-entropy loss of the batch. pooled has shape
// [batch x embDim], targets one label per row. It is ForwardInto over a
// fresh scratch.
func (t *Trunk) Forward(pooled *tensor.Dense, targets []int64) (float64, *forwardCache, error) {
	return t.ForwardInto(pooled, targets, new(TrunkScratch))
}

// ForwardInto is Forward writing its activations into s. The returned cache
// keeps references to pooled and targets and views into s; it stays valid
// until s's next ForwardInto.
//
//embrace:hotpath
func (t *Trunk) ForwardInto(pooled *tensor.Dense, targets []int64, s *TrunkScratch) (float64, *forwardCache, error) {
	batch := pooled.Dim(0)
	if batch != len(targets) {
		return 0, nil, fmt.Errorf("nn: %d pooled rows vs %d targets", batch, len(targets))
	}
	if err := t.forward(pooled, s); err != nil {
		return 0, nil, err
	}
	var loss float64
	for i := 0; i < batch; i++ {
		p := float64(s.probs.Row(i)[targets[i]])
		if p < 1e-30 {
			p = 1e-30
		}
		loss -= math.Log(p)
	}
	loss /= float64(batch)
	s.cache = forwardCache{pooled: pooled, hidden: &s.hidden, probs: &s.probs, targets: targets}
	return loss, &s.cache, nil
}

// Backward computes all trunk gradients and the pooled-activation gradient
// for the cached forward pass. Gradients are means over the batch, matching
// the loss definition. It is BackwardInto over a fresh scratch.
func (t *Trunk) Backward(c *forwardCache) *TrunkGrads {
	return t.BackwardInto(c, new(TrunkScratch))
}

// BackwardInto is Backward writing every gradient into s. The returned
// gradients are views into s, valid until its next BackwardInto. s may be
// the scratch whose ForwardInto produced c.
//
//embrace:hotpath
func (t *Trunk) BackwardInto(c *forwardCache, s *TrunkScratch) *TrunkGrads {
	batch := c.pooled.Dim(0)
	embDim, hiddenDim := t.W1.Dim(0), t.W1.Dim(1)
	vocab := t.W2.Dim(1)
	inv := 1 / float32(batch)
	s.ensureBackward(batch, embDim, hiddenDim, vocab)

	// dLogits = (probs - onehot(target)) / batch, for the whole batch.
	dl := s.dLogits
	copy(dl, c.probs.Data())
	for i := 0; i < batch; i++ {
		row := dl[i*vocab : (i+1)*vocab]
		row[c.targets[i]] -= 1
		for v := range row {
			row[v] *= inv
		}
	}
	// W2, B2 grads and the raw dHidden dot products, then the ReLU mask.
	hidden := c.hidden.Data()
	dh := s.dHidden
	w2GradKernel(t.W2.Data(), s.gW2.Data(), s.gB2.Data(), hidden, dl, dh, batch, hiddenDim, vocab)
	for k, h := range hidden {
		if !(h > 0) {
			dh[k] = 0
		}
	}
	// W1, B1 grads and dPooled, row by row.
	b1 := s.gB1.Data()
	for i := 0; i < batch; i++ {
		dHidden := dh[i*hiddenDim : (i+1)*hiddenDim]
		x := c.pooled.Row(i)
		dx := s.gPooled.Row(i)
		for k := 0; k < embDim; k++ {
			w1row := s.gW1.Row(k)
			tw1 := t.W1.Row(k)
			var acc float32
			for j := 0; j < hiddenDim; j++ {
				w1row[j] += x[k] * dHidden[j]
				acc += tw1[j] * dHidden[j]
			}
			dx[k] = acc
		}
		for j := 0; j < hiddenDim; j++ {
			b1[j] += dHidden[j]
		}
	}
	return &s.grads
}

// ensureBackward sizes the backward buffers for one pass and zeroes the
// accumulators — the cold growth half of BackwardInto.
func (s *TrunkScratch) ensureBackward(batch, embDim, hiddenDim, vocab int) {
	if cap(s.dLogits) < batch*vocab {
		s.dLogits = make([]float32, batch*vocab)
	}
	s.dLogits = s.dLogits[:batch*vocab]
	if cap(s.dHidden) < batch*hiddenDim {
		s.dHidden = make([]float32, batch*hiddenDim)
	}
	s.dHidden = s.dHidden[:batch*hiddenDim]
	clear(s.dHidden)
	s.gW1.Reuse(embDim, hiddenDim)
	s.gB1.Reuse(hiddenDim)
	s.gW2.Reuse(hiddenDim, vocab)
	s.gB2.Reuse(vocab)
	s.gPooled.Reuse(batch, embDim)
	s.gW1.Zero()
	s.gB1.Zero()
	s.gW2.Zero()
	s.gB2.Zero()
	s.grads = TrunkGrads{W1: &s.gW1, B1: &s.gB1, W2: &s.gW2, B2: &s.gB2, Pooled: &s.gPooled}
}

// Model bundles an embedding with a trunk — the baseline (pure data
// parallel) layout where every worker replicates everything.
type Model struct {
	Emb   *Embedding
	Trunk *Trunk
}

// NewModel builds a model with deterministic initialization: two models
// created with the same seed and sizes are bit-identical, which the
// cross-strategy equivalence tests rely on.
func NewModel(seed int64, vocab, embDim, hidden int) *Model {
	rng := rand.New(rand.NewSource(seed))
	return &Model{
		Emb:   NewEmbedding(rng, vocab, embDim),
		Trunk: NewTrunk(rng, embDim, hidden, vocab),
	}
}

// StepStats reports the training metrics of one forward pass.
type StepStats struct {
	// Loss is the mean cross-entropy of the batch.
	Loss float64
	// Correct counts top-1 next-token hits; Count is the batch size.
	Correct, Count int
}

// Step runs forward and backward for one batch of token windows and next-
// token targets, returning the batch metrics, the sparse embedding gradient
// and the dense trunk gradients. It is StepInto over a fresh scratch.
func (m *Model) Step(tokens [][]int64, targets []int64) (StepStats, *tensor.Sparse, *TrunkGrads, error) {
	return m.StepInto(tokens, targets, new(TrunkScratch))
}

// StepInto is Step running the trunk on s: the returned trunk gradients are
// views into s, valid until its next use.
func (m *Model) StepInto(tokens [][]int64, targets []int64, s *TrunkScratch) (StepStats, *tensor.Sparse, *TrunkGrads, error) {
	pooled := m.Emb.PoolLookup(tokens)
	loss, cache, err := m.Trunk.ForwardInto(pooled, targets, s)
	if err != nil {
		return StepStats{}, nil, nil, err
	}
	grads := m.Trunk.BackwardInto(cache, s)
	embGrad := m.Emb.PoolBackward(tokens, grads.Pooled)
	stats := StepStats{Loss: loss, Correct: cache.Correct(), Count: len(targets)}
	return stats, embGrad, grads, nil
}

// Perplexity converts a mean cross-entropy loss to the PPL metric the
// paper's Figure 11(a) tracks.
func Perplexity(loss float64) float64 { return math.Exp(loss) }
