package trainer

import (
	"strings"
	"testing"

	"embrace/internal/comm"
	"embrace/internal/data"
	"embrace/internal/strategies"
)

// seqConfig is the recurrent model's configuration: Adam under
// HorovodAllGather, whole updates unless a test asks for Sched2D.
func seqConfig(vocab, embDim, hidden int, lr float32, seed int64) strategies.Config {
	return strategies.Config{
		Seed: seed, Vocab: vocab, EmbDim: embDim, Hidden: hidden,
		Recurrent: true, Optimizer: strategies.OptAdam, LR: lr,
	}
}

func seqJob() Job {
	return Job{
		Strategy: strategies.HorovodAllGather,
		Workers:  3,
		Steps:    6,
		Window:   5,
		Model:    seqConfig(60, 6, 8, 0.02, 21),
		Data: data.Config{
			VocabSize:      60,
			BatchSentences: 6,
			MaxSeqLen:      8,
			MinSeqLen:      6,
			ZipfS:          1.5,
			ZipfV:          3,
		},
		DataSeed: 77,
	}
}

func TestSeqJobValidate(t *testing.T) {
	if err := seqJob().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Job){
		func(j *Job) { j.Workers = 0 },
		func(j *Job) { j.Steps = 0 },
		func(j *Job) { j.Window = 0 },
		func(j *Job) { j.Window = 6 }, // >= MinSeqLen
		func(j *Job) { j.Model.Vocab = 61 },
		func(j *Job) { j.Model.EmbDim = 0 },
		func(j *Job) { j.Model.LR = 0 },
		func(j *Job) { j.Data.ZipfS = 0.5 },
	}
	for i, mutate := range cases {
		j := seqJob()
		mutate(&j)
		if err := j.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestRunSeqTrains(t *testing.T) {
	j := seqJob()
	j.Steps = 25
	j.Model.Sched = strategies.Sched2D
	res, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != j.Steps || res.Embedding == nil {
		t.Fatal("missing results")
	}
	first := (res.Losses[0] + res.Losses[1]) / 2
	last := (res.Losses[j.Steps-1] + res.Losses[j.Steps-2]) / 2
	if last >= first {
		t.Fatalf("seq loss did not decrease: %v -> %v", first, last)
	}
	if res.Comm.PayloadBytes <= 0 || res.TokensTrained <= 0 {
		t.Fatalf("counters not populated: %+v", res.Comm)
	}
	for _, a := range res.Accuracies {
		if a < 0 || a > 1 {
			t.Fatalf("accuracy %v out of range", a)
		}
	}
}

// The §5.7 property on the recurrent model: vertical split with modified
// Adam must be bit-identical to whole updates.
func TestRunSeqVerticalEqualsWhole(t *testing.T) {
	whole := seqJob()
	res1, err := Run(whole)
	if err != nil {
		t.Fatal(err)
	}
	split := seqJob()
	split.Model.Sched = strategies.Sched2D
	res2, err := Run(split)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Losses {
		if res1.Losses[i] != res2.Losses[i] {
			t.Fatalf("loss[%d]: %v vs %v", i, res1.Losses[i], res2.Losses[i])
		}
	}
	if !res1.Embedding.AllClose(res2.Embedding, 0) {
		t.Fatalf("split diverged by %v", res1.Embedding.MaxAbsDiff(res2.Embedding))
	}
}

func TestRunSeqOverTCP(t *testing.T) {
	j := seqJob()
	j.Steps = 3
	inproc, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	j.OverTCP = true
	tcp, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inproc.Losses {
		if inproc.Losses[i] != tcp.Losses[i] {
			t.Fatalf("loss[%d]: %v vs %v", i, inproc.Losses[i], tcp.Losses[i])
		}
	}
}

func TestRunSeqRejectsInvalid(t *testing.T) {
	j := seqJob()
	j.Window = 0
	if _, err := Run(j); err == nil {
		t.Fatal("expected validation error")
	}
}

// realText is a tiny public-domain-style corpus with strong word reuse.
var realText = []string{
	"the old man went to the sea",
	"the sea was calm and the wind was cold",
	"the old man cast his net into the sea",
	"the net came back empty and the man waited",
	"the wind rose and the sea grew rough",
	"the man pulled the net from the rough sea",
	"the cold wind cut through the old net",
	"the sea gave the man a great fish",
	"the fish fought the net and the man",
	"the man brought the great fish to shore",
	"the shore was quiet and the wind was gone",
	"the old man slept by the calm sea",
}

// textJob trains the recurrent model on realText with Algorithm 1: two
// workers, three sentences per batch.
func textJob() Job {
	j := Job{
		Strategy: strategies.HorovodAllGather,
		Workers:  2,
		Steps:    30,
		Window:   5,
		Model:    seqConfig(64, 8, 12, 0.03, 13),
		Text:     realText,
		Data:     data.Config{BatchSentences: 3},
	}
	j.Model.Sched = strategies.Sched2D
	return j
}

func TestRunSeqOnRealText(t *testing.T) {
	res, err := Run(textJob())
	if err != nil {
		t.Fatal(err)
	}
	first := (res.Losses[0] + res.Losses[1]) / 2
	last := (res.Losses[28] + res.Losses[29]) / 2
	if last >= first {
		t.Fatalf("text training did not learn: %v -> %v", first, last)
	}
	// The tiny corpus repeats every few steps; the model should start
	// predicting next words well above chance.
	if res.Accuracies[29] < 0.2 {
		t.Fatalf("final accuracy %v suspiciously low", res.Accuracies[29])
	}
}

func TestRunSeqTextVerticalEqualsWhole(t *testing.T) {
	mk := func(sched strategies.SchedMode) Job {
		j := textJob()
		j.Steps = 5
		j.Model.Sched = sched
		return j
	}
	whole, err := Run(mk(strategies.SchedNone))
	if err != nil {
		t.Fatal(err)
	}
	split, err := Run(mk(strategies.Sched2D))
	if err != nil {
		t.Fatal(err)
	}
	for i := range whole.Losses {
		if whole.Losses[i] != split.Losses[i] {
			t.Fatalf("loss[%d]: %v vs %v", i, whole.Losses[i], split.Losses[i])
		}
	}
}

func TestRunSeqTextValidation(t *testing.T) {
	j := Job{Strategy: strategies.HorovodAllGather, Workers: 2, Steps: 1, Window: 5, Model: seqConfig(2, 4, 4, 0.01, 0), Text: realText, Data: data.Config{BatchSentences: 3}}
	if _, err := Run(j); err == nil || !strings.Contains(err.Error(), "vocab") {
		t.Fatalf("expected tiny-vocab error, got %v", err)
	}
	// Too few sentences for the shard.
	j2 := Job{Strategy: strategies.HorovodAllGather, Workers: 8, Steps: 1, Window: 5, Model: seqConfig(64, 4, 4, 0.01, 0), Text: realText[:4], Data: data.Config{BatchSentences: 3}}
	if _, err := Run(j2); err == nil {
		t.Fatal("expected shard-size error")
	}
}

// Text mode shards its sentences across the ranks of one process: the
// multi-process and elastic entry points reject it up front.
func TestTextModeRunsOnlyInRun(t *testing.T) {
	j := textJob()
	err := comm.RunRanks(j.Workers, func(tr comm.Transport) error {
		if _, err := RunWorker(j, tr); err == nil || !strings.Contains(err.Error(), "text mode") {
			t.Errorf("RunWorker: expected text-mode rejection, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunElastic(ElasticJob{Job: j}); err == nil || !strings.Contains(err.Error(), "Text") {
		t.Fatalf("RunElastic: expected text rejection, got %v", err)
	}
}
