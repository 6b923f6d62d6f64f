package strategies

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/tensor"
)

// batchFor builds rank r's deterministic batch for step s: two windows and
// their targets, all derived arithmetically so every world size and chaos
// seed sees the same data.
func batchFor(r, s, vocab int) ([][]int64, []int64) {
	v := int64(vocab)
	base := int64(r*7+s*13) % v
	windows := [][]int64{
		{base, (base + 3) % v, (base + 5) % v, (base + 5) % v},
		{(base + 1) % v, (base + 8) % v, (base + 2) % v},
	}
	targets := []int64{(base + 2) % v, (base + 11) % v}
	return windows, targets
}

func flatten(windows [][]int64) []int64 {
	var out []int64
	for _, w := range windows {
		out = append(out, w...)
	}
	return out
}

// runEmbRaceTraining drives `steps` EmbRace steps on every rank of an n-rank
// world under the given runner and returns the per-rank loss history plus
// rank 0's final gathered embedding table.
func runEmbRaceTraining(t *testing.T, n, steps int, cfg Config, run func(int, func(comm.Transport) error) error) ([][]float64, *tensor.Dense) {
	t.Helper()
	losses := make([][]float64, n)
	var emb *tensor.Dense
	var mu sync.Mutex
	err := run(n, func(tr comm.Transport) error {
		r := tr.Rank()
		w, err := NewWorker(EmbRace, collective.NewCommunicator(tr), cfg, nil)
		if err != nil {
			return err
		}
		hist := make([]float64, 0, steps)
		for s := 0; s < steps; s++ {
			windows, targets := batchFor(r, s, cfg.Vocab)
			nextWindows, _ := batchFor(r, s+1, cfg.Vocab)
			stats, err := w.Step(s, windows, targets, flatten(nextWindows))
			if err != nil {
				return err
			}
			hist = append(hist, stats.Loss)
		}
		full, err := w.FullEmbedding()
		if err != nil {
			return err
		}
		mu.Lock()
		losses[r] = hist
		if r == 0 {
			emb = full
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return losses, emb
}

// The rebuilt hot path (arena exchange, self-send elision, reused scratch)
// must be invisible to training: under every maskable chaos plan, every world
// size trains bit-identically to a fault-free world. Adam + Sched2D is the
// deepest path — split updates, the modified step counter, and the background
// delayed exchange all in play.
func TestEmbRaceChaosTrainingEquivalenceAcrossWorldSizes(t *testing.T) {
	const steps = 4
	cfg := Config{
		Seed: 3, Vocab: 36, EmbDim: 24, Hidden: 4,
		Optimizer: OptAdam, LR: 0.05, Sched: Sched2D, PSServers: 1,
	}
	for _, n := range []int{2, 3, 4, 8} {
		wantLosses, wantEmb := runEmbRaceTraining(t, n, steps, cfg, comm.RunRanks)
		for seed := int64(1); seed <= 3; seed++ {
			run := func(n int, fn func(comm.Transport) error) error {
				return comm.RunRanksChaos(n, comm.MaskableChaosPlan(seed), fn)
			}
			gotLosses, gotEmb := runEmbRaceTraining(t, n, steps, cfg, run)
			for r := 0; r < n; r++ {
				for s := 0; s < steps; s++ {
					if math.Float64bits(gotLosses[r][s]) != math.Float64bits(wantLosses[r][s]) {
						t.Fatalf("n=%d seed=%d rank=%d step=%d: loss %v under chaos, %v clean",
							n, seed, r, s, gotLosses[r][s], wantLosses[r][s])
					}
				}
			}
			wd, gd := wantEmb.Data(), gotEmb.Data()
			for i := range wd {
				if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
					t.Fatalf("n=%d seed=%d: embedding diverged at element %d: %v vs %v",
						n, seed, i, gd[i], wd[i])
				}
			}
		}
	}
}

// measureStep runs a single-rank EmbRace world, warms the scratch buffers
// up, and returns the steady-state allocations and allocated bytes per Step
// call. Bytes come from the runtime's cumulative TotalAlloc, so they count
// what AllocsPerRun cannot tell apart: one 1 MB gradient tensor and one
// 16-byte header are both "one allocation".
func measureStep(t *testing.T, cfg Config) (allocs, bytes float64) {
	t.Helper()
	const runs = 30
	err := comm.RunRanks(1, func(tr comm.Transport) error {
		w, err := NewWorker(EmbRace, collective.NewCommunicator(tr), cfg, nil)
		if err != nil {
			return err
		}
		step := 0
		do := func() {
			windows, targets := batchFor(0, step, cfg.Vocab)
			nextWindows, _ := batchFor(0, step+1, cfg.Vocab)
			if _, err := w.Step(step, windows, targets, flatten(nextWindows)); err != nil {
				panic(err)
			}
			step++
		}
		for i := 0; i < 3; i++ { // grow every buffer to its high-water mark
			do()
		}
		allocs = testing.AllocsPerRun(runs, do)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			do()
		}
		runtime.ReadMemStats(&after)
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / runs
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs, bytes
}

// Steady-state alloc budgets for a full EmbRace step. The sparse hot path —
// gradient build, column packing, split, exchange, coalesce, update — and
// the trunk's forward/backward (nn.TrunkScratch) allocate nothing; what
// remains is the step's fixed overhead (collective out-slices, the
// shard-side pooled lookups that travel by reference, the per-step
// background goroutine and its join channel). The budgets are regression
// tripwires a little above the measured counts: reintroducing even one
// per-row or per-shard allocation in the sparse path shows up as tens of
// allocations and trips them.
//
// The byte budget pins the trunk at zero bytes: with a 2048-word vocabulary
// a single reallocated vocabulary-wide trunk buffer (probabilities, logit
// gradients, or the 64 KB W2 gradient) costs at least 16 KB per step, far
// above the under-1 KB the fixed overhead takes, while the object count would
// move by only one. Before the trunk moved onto scratch, the step allocated
// about 100 KB here.
func TestEmbRaceStepSteadyStateAllocBudget(t *testing.T) {
	base := Config{
		Seed: 3, Vocab: 36, EmbDim: 8, Hidden: 4,
		Optimizer: OptAdam, LR: 0.05, PSServers: 1,
	}
	noSched := base
	if got, _ := measureStep(t, noSched); got > 80 {
		t.Errorf("no-sched steady-state step makes %v allocations, budget 80", got)
	}
	sched := base
	sched.Sched = Sched2D
	if got, _ := measureStep(t, sched); got > 90 {
		t.Errorf("sched2d steady-state step makes %v allocations, budget 90", got)
	}

	wide := sched
	wide.Vocab, wide.Hidden = 2048, 8
	allocs, bytes := measureStep(t, wide)
	t.Logf("vocab %d hidden %d: %.0f allocs, %.0f bytes per step", wide.Vocab, wide.Hidden, allocs, bytes)
	if bytes > 4<<10 {
		t.Errorf("wide-vocab steady-state step allocates %.0f bytes, budget %d", bytes, 4<<10)
	}
}

// Per-(peer, tag) transport and sequence state must be reclaimed as the
// collectives finish with it. Tags are unique per (op, step), so any state
// kept per tag grows with the number of steps run; here a 4-rank EmbRace
// world runs 200 steps and the live mailbox and stream counts must stay
// under a bound that does not depend on the step count while training, and
// drop to zero once the world is quiescent.
func TestEmbRaceTagStateReclaimed(t *testing.T) {
	const (
		n     = 4
		steps = 200
		// A step keeps a handful of tags live per rank pair, and the
		// delayed exchange overlaps the next step: far below what 200
		// steps of leaked per-tag state would add up to.
		liveBound = 256
	)
	cfg := Config{
		Seed: 3, Vocab: 36, EmbDim: 24, Hidden: 4,
		Optimizer: OptAdam, LR: 0.05, Sched: Sched2D, PSServers: 1,
	}
	world, err := comm.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	cms := make([]*collective.Communicator, n)
	errs := make([]error, n)
	var peak int
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		cms[r] = collective.NewCommunicator(world.Rank(r))
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				w, err := NewWorker(EmbRace, cms[r], cfg, nil)
				if err != nil {
					return err
				}
				for s := 0; s < steps; s++ {
					windows, targets := batchFor(r, s, cfg.Vocab)
					nextWindows, _ := batchFor(r, s+1, cfg.Vocab)
					if _, err := w.Step(s, windows, targets, flatten(nextWindows)); err != nil {
						return err
					}
					if r == 0 {
						peak = max(peak, world.LiveMailboxes())
					}
				}
				_, err = w.FullEmbedding()
				return err
			}()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if peak > liveBound {
		t.Errorf("live mailboxes peaked at %d during %d steps, bound %d", peak, steps, liveBound)
	}
	if got := world.LiveMailboxes(); got != 0 {
		t.Errorf("%d mailboxes still live after the run, want 0", got)
	}
	for r, cm := range cms {
		if got := cm.LiveStreams(); got != 0 {
			t.Errorf("rank %d: %d sequence streams still live after the run, want 0", r, got)
		}
	}
}
