package optim

import (
	"math"
	"math/rand"
	"testing"

	"embrace/internal/tensor"
)

// naiveAdam is the per-element Adam update adamKernel replaced, kept verbatim
// as the oracle: every element re-reads the optimizer's fields.
type naiveAdam struct {
	param, m, v           *tensor.Dense
	lr, beta1, beta2, eps float32
	step                  int
}

func (o *naiveAdam) updateElem(i int, g float32, stepLR float32) {
	md, vd := o.m.Data(), o.v.Data()
	md[i] = o.beta1*md[i] + (1-o.beta1)*g
	vd[i] = o.beta2*vd[i] + (1-o.beta2)*g*g
	o.param.Data()[i] -= stepLR * md[i] / (float32(math.Sqrt(float64(vd[i]))) + o.eps)
}

func (o *naiveAdam) stepLR(step int) float32 {
	bc1 := 1 - math.Pow(float64(o.beta1), float64(step))
	bc2 := 1 - math.Pow(float64(o.beta2), float64(step))
	return o.lr * float32(math.Sqrt(bc2)/bc1)
}

func (o *naiveAdam) stepDense(grad *tensor.Dense) {
	o.step++
	lr := o.stepLR(o.step)
	for i, g := range grad.Data() {
		o.updateElem(i, g, lr)
	}
}

func (o *naiveAdam) stepSparsePartial(grad *tensor.Sparse, final bool) {
	step := o.step + 1
	lr := o.stepLR(step)
	c := grad.Coalesce()
	for r, ix := range c.Indices {
		base := int(ix) * c.Dim
		for j, g := range c.Row(r) {
			o.updateElem(base+j, g, lr)
		}
	}
	if final {
		o.step = step
	}
}

func requireBitEqual(t *testing.T, what string, got, want *tensor.Dense) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			t.Fatalf("%s[%d] = %v, oracle %v", what, i, gd[i], wd[i])
		}
	}
}

// The shared slice kernel must reproduce the per-element update bit for bit
// on both paths: dense steps and split sparse row updates (prior parts with
// final=false, delayed parts with final=true), interleaved over many steps
// so the moments carry real history.
func TestAdamKernelMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rows, dim = 40, 7
	init := tensor.RandDense(rng, 1, rows, dim)
	p := init.Clone()
	o := NewAdam(p, 0.01, 0.9, 0.999, 1e-8)
	ref := &naiveAdam{
		param: init.Clone(), m: tensor.NewDense(rows, dim), v: tensor.NewDense(rows, dim),
		lr: 0.01, beta1: 0.9, beta2: 0.999, eps: 1e-8,
	}
	for step := 0; step < 12; step++ {
		if step%3 == 0 {
			g := tensor.RandDense(rng, 1, rows, dim)
			if err := o.StepDense(g); err != nil {
				t.Fatal(err)
			}
			ref.stepDense(g)
		} else {
			for _, final := range []bool{false, true} {
				g := randSparse(rng, rows, dim, 9)
				if err := o.StepSparsePartial(g, final); err != nil {
					t.Fatal(err)
				}
				ref.stepSparsePartial(g, final)
			}
		}
		requireBitEqual(t, "param", p, ref.param)
		requireBitEqual(t, "m", o.m, ref.m)
		requireBitEqual(t, "v", o.v, ref.v)
		if o.Step() != ref.step {
			t.Fatalf("step %d: counter %d, oracle %d", step, o.Step(), ref.step)
		}
	}
}

// A dense Adam step on a warmed-up optimizer allocates nothing.
func TestAdamStepDenseAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := tensor.RandDense(rng, 1, 64, 32)
	g := tensor.RandDense(rng, 1, 64, 32)
	o := NewAdamDefault(p, 0.01)
	if got := testing.AllocsPerRun(20, func() {
		if err := o.StepDense(g); err != nil {
			panic(err)
		}
	}); got != 0 {
		t.Fatalf("StepDense makes %v allocations, want 0", got)
	}
}
