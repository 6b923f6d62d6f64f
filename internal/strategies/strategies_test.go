package strategies

import (
	"sync"
	"testing"

	"embrace/internal/collective"
	"embrace/internal/comm"
)

func validConfig() Config {
	return Config{
		Seed:      1,
		Vocab:     30,
		EmbDim:    8,
		Hidden:    4,
		Optimizer: OptSGD,
		LR:        0.1,
		PSServers: 1,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := validConfig().Validate(4); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		mutate  func(*Config)
		workers int
	}{
		{func(c *Config) { c.Vocab = 1 }, 4},
		{func(c *Config) { c.EmbDim = 0 }, 4},
		{func(c *Config) { c.Hidden = 0 }, 4},
		{func(c *Config) { c.LR = 0 }, 4},
		{func(c *Config) { c.Optimizer = "rmsprop" }, 4},
		{func(c *Config) {}, 0},
		{func(c *Config) { c.EmbDim = 10 }, 4}, // not divisible
		{func(c *Config) { c.PSServers = -1 }, 4},
	}
	for i, tc := range cases {
		c := validConfig()
		tc.mutate(&c)
		if err := c.Validate(tc.workers); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

// The recurrent model replicates its embedding, so it skips the column
// divisibility constraint, and it runs under HorovodAllGather only.
func TestRecurrentConfig(t *testing.T) {
	cfg := validConfig()
	cfg.Recurrent = true
	cfg.EmbDim = 10
	if err := cfg.Validate(4); err != nil {
		t.Fatalf("recurrent EmbDim 10 on 4 workers: %v", err)
	}
	if _, err := NewShared(HorovodAllGather, cfg, 4); err != nil {
		t.Fatal(err)
	}
	for _, name := range AllNames() {
		if name == HorovodAllGather {
			continue
		}
		if _, err := NewShared(name, cfg, 4); err == nil {
			t.Fatalf("%s: recurrent model accepted", name)
		}
	}
	err := comm.RunRanks(2, func(tr comm.Transport) error {
		if _, err := NewWorker(EmbRace, collective.NewCommunicator(tr), cfg, nil); err == nil {
			t.Error("embrace worker accepted the recurrent model")
		}
		w, err := NewWorker(HorovodAllGather, collective.NewCommunicator(tr), cfg, nil)
		if err != nil {
			return err
		}
		if len(w.DenseParams()) != 11 {
			t.Errorf("recurrent worker has %d dense params, want 9 GRU + wo, bo", len(w.DenseParams()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllNamesCoverFiveStrategies(t *testing.T) {
	names := AllNames()
	if len(names) != 5 {
		t.Fatalf("%d strategies", len(names))
	}
	seen := map[Name]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []Name{BytePS, HorovodAllReduce, HorovodAllGather, Parallax, EmbRace} {
		if !seen[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestNewSharedPerStrategy(t *testing.T) {
	cfg := validConfig()
	for _, name := range AllNames() {
		sh, err := NewShared(name, cfg, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		switch name {
		case Parallax:
			if sh.sparseEmb == nil {
				t.Fatal("parallax needs a sparse server")
			}
		case BytePS:
			if sh.denseEmb == nil || len(sh.trunkSrvs) != 4 {
				t.Fatal("byteps needs dense servers")
			}
		default:
			if sh.sparseEmb != nil || sh.denseEmb != nil {
				t.Fatalf("%s should have no server state", name)
			}
		}
	}
	if _, err := NewShared("nope", cfg, 4); err == nil {
		t.Fatal("expected unknown-strategy error")
	}
	bad := cfg
	bad.EmbDim = 9
	if _, err := NewShared(EmbRace, bad, 4); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestNewWorkerValidation(t *testing.T) {
	cfg := validConfig()
	err := comm.RunRanks(2, func(tr comm.Transport) error {
		if _, err := NewWorker("nope", collective.NewCommunicator(tr), cfg, nil); err == nil {
			t.Error("expected unknown-strategy error")
		}
		// PS strategies need their shared state.
		if _, err := NewWorker(Parallax, collective.NewCommunicator(tr), cfg, nil); err == nil {
			t.Error("parallax must demand shared state")
		}
		if _, err := NewWorker(BytePS, collective.NewCommunicator(tr), cfg, &Shared{}); err == nil {
			t.Error("byteps must demand shared state")
		}
		// Collective strategies tolerate nil shared state.
		if _, err := NewWorker(HorovodAllGather, collective.NewCommunicator(tr), cfg, nil); err != nil {
			t.Errorf("allgather: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Drive a single EmbRace step directly (without the trainer) and verify the
// assembled pooled activations equal a locally computed full-model lookup.
func TestEmbRaceStepMatchesLocalModel(t *testing.T) {
	cfg := validConfig()
	const workers = 4
	windows := map[int][][]int64{
		0: {{1, 2, 3, 4}},
		1: {{5, 6, 7, 8}},
		2: {{9, 9, 1, 2}},
		3: {{3, 3, 3, 3}},
	}
	targets := map[int][]int64{0: {5}, 1: {9}, 2: {4}, 3: {7}}

	losses := make([]float64, workers)
	var mu sync.Mutex
	err := comm.RunRanks(workers, func(tr comm.Transport) error {
		w, err := NewWorker(EmbRace, collective.NewCommunicator(tr), cfg, nil)
		if err != nil {
			return err
		}
		stats, err := w.Step(0, windows[tr.Rank()], targets[tr.Rank()], []int64{1})
		if err != nil {
			return err
		}
		mu.Lock()
		losses[tr.Rank()] = stats.Loss
		mu.Unlock()
		_, err = w.FullEmbedding() // collective; keeps ranks aligned
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Each rank's loss must equal the loss a single-process model computes
	// on that rank's batch from the same seed (the AlltoAll lookup is just
	// a distributed implementation of the same forward pass).
	for r := 0; r < workers; r++ {
		err := comm.RunRanks(1, func(tr comm.Transport) error {
			w, err := NewWorker(HorovodAllGather, collective.NewCommunicator(tr), Config{
				Seed: cfg.Seed, Vocab: cfg.Vocab, EmbDim: cfg.EmbDim, Hidden: cfg.Hidden,
				Optimizer: OptSGD, LR: cfg.LR, PSServers: 1,
			}, nil)
			if err != nil {
				return err
			}
			stats, err := w.Step(0, windows[r], targets[r], nil)
			if err != nil {
				return err
			}
			if diff := stats.Loss - losses[r]; diff > 1e-5 || diff < -1e-5 {
				t.Errorf("rank %d: embrace loss %v vs local %v", r, losses[r], stats.Loss)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWorkerStrategyNames(t *testing.T) {
	cfg := validConfig()
	for _, name := range AllNames() {
		sh, err := NewShared(name, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		err = comm.RunRanks(2, func(tr comm.Transport) error {
			w, err := NewWorker(name, collective.NewCommunicator(tr), cfg, sh)
			if err != nil {
				return err
			}
			if w.Strategy() != name {
				t.Errorf("Strategy() = %s, want %s", w.Strategy(), name)
			}
			if w.DenseParams() == nil {
				t.Error("nil trunk")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestNoTagCollisionsAcrossStrategies(t *testing.T) {
	// Run every strategy for 3 real steps over shared per-rank Communicators
	// (EmbRace with 2D scheduling, so the background delayed exchange and the
	// out-of-band FullEmbedding ticket both register their ops), then verify
	// that every (op, step) pair the run touched maps to a distinct tag.
	// This is the regression test for the old hand-numbered tag spaces,
	// where an out-of-band gather reused step arithmetic (tag(1<<20, ...))
	// and could collide with a long enough training run.
	const workers, steps = 2, 3
	cfg := validConfig()
	cfg.Sched = Sched2D
	cms := make([]*collective.Communicator, workers)
	windows := [][][]int64{{{1, 2, 3, 4}}, {{5, 6, 7, 8}}}
	targets := [][]int64{{5}, {9}}

	for _, name := range AllNames() {
		sh, err := NewShared(name, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		err = comm.RunRanks(workers, func(tr comm.Transport) error {
			r := tr.Rank()
			if cms[r] == nil {
				cms[r] = collective.NewCommunicator(tr)
			}
			// Communicators carry no transport-topology state beyond the
			// rank, so reusing the tag table across worlds is safe here and
			// is exactly what accumulates all strategies' ops into one space.
			cm := collective.NewCommunicator(tr)
			w, err := NewWorker(name, cm, cfg, sh)
			if err != nil {
				return err
			}
			for s := 0; s < steps; s++ {
				if _, err := w.Step(s, windows[r], targets[r], []int64{1, 2}); err != nil {
					return err
				}
				// Mirror the ops into the shared per-rank communicator.
				for _, op := range cm.Ops() {
					if _, err := cms[r].Tag(op, s); err != nil {
						return err
					}
				}
			}
			_, err = w.FullEmbedding()
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	for r, cm := range cms {
		ops := cm.Ops()
		if len(ops) == 0 {
			t.Fatalf("rank %d registered no ops", r)
		}
		seen := map[int]string{}
		for _, op := range ops {
			for s := 0; s <= steps; s++ { // steps plus one ticket's worth
				tg, err := cm.Tag(op, s)
				if err != nil {
					t.Fatal(err)
				}
				key := op + "@" + string(rune('0'+s))
				if prev, ok := seen[tg]; ok {
					t.Fatalf("rank %d: tag %d shared by %s and %s", r, tg, prev, key)
				}
				seen[tg] = key
			}
		}
	}
}
