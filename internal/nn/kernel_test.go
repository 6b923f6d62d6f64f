package nn

import (
	"math"
	"math/rand"
	"testing"

	"embrace/internal/tensor"
)

// naiveInfer is the row-at-a-time trunk forward the blocked kernels replaced,
// kept verbatim as the oracle: every batch row walks the whole W2.
func naiveInfer(t *Trunk, pooled *tensor.Dense) (hidden, probs *tensor.Dense) {
	batch := pooled.Dim(0)
	embDim, hiddenDim := t.W1.Dim(0), t.W1.Dim(1)
	vocab := t.W2.Dim(1)
	hidden = tensor.NewDense(batch, hiddenDim)
	b1 := t.B1.Data()
	for i := 0; i < batch; i++ {
		x := pooled.Row(i)
		h := hidden.Row(i)
		copy(h, b1)
		for k := 0; k < embDim; k++ {
			xk := x[k]
			w1row := t.W1.Row(k)
			for j := 0; j < hiddenDim; j++ {
				h[j] += xk * w1row[j]
			}
		}
		for j := 0; j < hiddenDim; j++ {
			if h[j] < 0 {
				h[j] = 0
			}
		}
	}
	probs = tensor.NewDense(batch, vocab)
	b2 := t.B2.Data()
	for i := 0; i < batch; i++ {
		h := hidden.Row(i)
		logits := probs.Row(i)
		copy(logits, b2)
		for j := 0; j < hiddenDim; j++ {
			hj := h[j]
			w2row := t.W2.Row(j)
			for v := 0; v < vocab; v++ {
				logits[v] += hj * w2row[v]
			}
		}
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
	return hidden, probs
}

// naiveBackward is the row-at-a-time trunk backward the blocked kernels
// replaced, kept verbatim as the oracle: every batch row read-modify-writes
// the whole W2 gradient.
func naiveBackward(t *Trunk, pooled, hidden, probs *tensor.Dense, targets []int64) *TrunkGrads {
	batch := pooled.Dim(0)
	embDim, hiddenDim := t.W1.Dim(0), t.W1.Dim(1)
	vocab := t.W2.Dim(1)
	inv := 1 / float32(batch)
	g := &TrunkGrads{
		W1:     tensor.NewDense(embDim, hiddenDim),
		B1:     tensor.NewDense(hiddenDim),
		W2:     tensor.NewDense(hiddenDim, vocab),
		B2:     tensor.NewDense(vocab),
		Pooled: tensor.NewDense(batch, embDim),
	}
	dHidden := make([]float32, hiddenDim)
	dLogits := make([]float32, vocab)
	for i := 0; i < batch; i++ {
		copy(dLogits, probs.Row(i))
		dLogits[targets[i]] -= 1
		for v := range dLogits {
			dLogits[v] *= inv
		}
		h := hidden.Row(i)
		for j := 0; j < hiddenDim; j++ {
			var acc float32
			w2row := g.W2.Row(j)
			tw2 := t.W2.Row(j)
			for v := 0; v < vocab; v++ {
				w2row[v] += h[j] * dLogits[v]
				acc += tw2[v] * dLogits[v]
			}
			if h[j] > 0 {
				dHidden[j] = acc
			} else {
				dHidden[j] = 0
			}
		}
		b2 := g.B2.Data()
		for v := 0; v < vocab; v++ {
			b2[v] += dLogits[v]
		}
		x := pooled.Row(i)
		dx := g.Pooled.Row(i)
		b1 := g.B1.Data()
		for k := 0; k < embDim; k++ {
			w1row := g.W1.Row(k)
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
	return g
}

func requireBitEqual(t *testing.T, what string, got, want *tensor.Dense) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("%s: %d elements, want %d", what, len(gd), len(wd))
	}
	for i := range wd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), oracle %v (%#08x)",
				what, i, gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))
		}
	}
}

// trunkCase is one kernel shape: batch rows of embDim -> hidden -> vocab.
type trunkCase struct {
	name                         string
	batch, embDim, hidden, vocab int
}

// kernelCases covers the two benchmark workloads' shapes and the ragged
// edges of every unrolled or tiled loop: a single row, a batch that is not a
// multiple of four, a hidden width that is not a multiple of four, and a
// vocabulary that is not a multiple of the tile.
var kernelCases = []trunkCase{
	{"train-dense", 8, 64, 32, 8192},
	{"train-sparse-tcp", 32, 256, 8, 4096},
	{"batch1", 1, 5, 6, 300},
	{"batch7", 7, 6, 8, 2*trunkTile + 3},
	{"hidden5", 6, 4, 5, trunkTile - 1},
	{"ragged", 9, 3, 7, 3*trunkTile + 11},
}

// trunkInputs builds a seeded trunk with non-zero biases (so every
// accumulation chain starts from a non-trivial value), a pooled batch with
// some exactly-zero and negative hidden pre-activations, and targets.
func trunkInputs(c trunkCase, seed int64) (*Trunk, *tensor.Dense, []int64) {
	rng := rand.New(rand.NewSource(seed))
	tr := NewTrunk(rng, c.embDim, c.hidden, c.vocab)
	tr.B1 = tensor.RandDense(rng, 0.5, c.hidden)
	tr.B2 = tensor.RandDense(rng, 0.5, c.vocab)
	pooled := tensor.RandDense(rng, 1, c.batch, c.embDim)
	if c.batch > 1 {
		pooled.Row(1)[0] = 0
	}
	targets := make([]int64, c.batch)
	for i := range targets {
		targets[i] = rng.Int63n(int64(c.vocab))
	}
	return tr, pooled, targets
}

// The blocked trunk kernels must reproduce the naive loops bit for bit on
// every shape: forward activations, probabilities and loss, and every
// gradient including the one flowing back into the pooled activations.
func TestTrunkKernelsMatchNaiveOracle(t *testing.T) {
	for _, c := range kernelCases {
		t.Run(c.name, func(t *testing.T) {
			tr, pooled, targets := trunkInputs(c, int64(c.vocab+c.batch))
			wantHidden, wantProbs := naiveInfer(tr, pooled)
			want := naiveBackward(tr, pooled, wantHidden, wantProbs, targets)

			var s TrunkScratch
			_, cache, err := tr.ForwardInto(pooled, targets, &s)
			if err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, "hidden", cache.hidden, wantHidden)
			requireBitEqual(t, "probs", cache.probs, wantProbs)
			got := tr.BackwardInto(cache, &s)
			requireBitEqual(t, "gW1", got.W1, want.W1)
			requireBitEqual(t, "gB1", got.B1, want.B1)
			requireBitEqual(t, "gW2", got.W2, want.W2)
			requireBitEqual(t, "gB2", got.B2, want.B2)
			requireBitEqual(t, "gPooled", got.Pooled, want.Pooled)

			probs, err := tr.Infer(pooled)
			if err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, "Infer", probs, wantProbs)
		})
	}
}

// One scratch reused across shrinking and growing batches must give the same
// bits as a fresh scratch every time: no stale activations, gradients or
// accumulators leak from a larger earlier pass into a smaller later one.
func TestTrunkScratchReuseAcrossBatchSizes(t *testing.T) {
	const embDim, hidden, vocab = 6, 7, trunkTile + 5
	var s TrunkScratch
	for _, batch := range []int{9, 2, 13, 1, 5, 13} {
		c := trunkCase{"reuse", batch, embDim, hidden, vocab}
		tr, pooled, targets := trunkInputs(c, int64(batch))
		wantLoss, wantCache, err := tr.Forward(pooled, targets)
		if err != nil {
			t.Fatal(err)
		}
		want := tr.Backward(wantCache)

		loss, cache, err := tr.ForwardInto(pooled, targets, &s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(loss) != math.Float64bits(wantLoss) {
			t.Fatalf("batch %d: loss %v, fresh scratch %v", batch, loss, wantLoss)
		}
		requireBitEqual(t, "probs", cache.probs, wantCache.probs)
		got := tr.BackwardInto(cache, &s)
		requireBitEqual(t, "gW1", got.W1, want.W1)
		requireBitEqual(t, "gB1", got.B1, want.B1)
		requireBitEqual(t, "gW2", got.W2, want.W2)
		requireBitEqual(t, "gB2", got.B2, want.B2)
		requireBitEqual(t, "gPooled", got.Pooled, want.Pooled)
	}
}

// A warmed-up scratch makes the trunk's forward and backward allocation
// free: no objects and no bytes.
func TestTrunkIntoSteadyStateAllocatesNothing(t *testing.T) {
	c := trunkCase{"alloc", 8, 16, 8, 1000}
	tr, pooled, targets := trunkInputs(c, 1)
	var s TrunkScratch
	pass := func() {
		_, cache, err := tr.ForwardInto(pooled, targets, &s)
		if err != nil {
			panic(err)
		}
		tr.BackwardInto(cache, &s)
	}
	pass()
	if got := testing.AllocsPerRun(20, pass); got != 0 {
		t.Fatalf("steady-state ForwardInto+BackwardInto makes %v allocations, want 0", got)
	}
}

func BenchmarkTrunkForwardBackward(b *testing.B) {
	tr, pooled, targets := trunkInputs(kernelCases[0], 1)
	var s TrunkScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, cache, err := tr.ForwardInto(pooled, targets, &s)
		if err != nil {
			b.Fatal(err)
		}
		tr.BackwardInto(cache, &s)
	}
}

// BenchmarkTrunkNaiveOracle times the naive loops on the same shape as
// BenchmarkTrunkForwardBackward, so the blocked kernels' gain can be
// reproduced on any host.
func BenchmarkTrunkNaiveOracle(b *testing.B) {
	tr, pooled, targets := trunkInputs(kernelCases[0], 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hidden, probs := naiveInfer(tr, pooled)
		naiveBackward(tr, pooled, hidden, probs, targets)
	}
}
