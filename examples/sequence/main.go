// Sequence: data-parallel training of the recurrent model (embedding → GRU
// → softmax) with per-token sparse embedding gradients — the gradient
// structure of the paper's translation models, where every token position
// contributes a row and duplicates abound. The example trains it through the
// public API twice, with whole sparse AllGathers and with Algorithm 1's
// prior/delayed split, and prints where the embedding-gradient bytes went.
package main

import (
	"fmt"
	"log"

	"embrace"
)

func main() {
	log.SetFlags(0)
	cfg := embrace.SeqTrainConfig{
		Workers:        4,
		Steps:          25,
		Window:         6,
		Vocab:          400,
		EmbDim:         12,
		Hidden:         16,
		BatchSentences: 12,
		Seed:           11,
	}
	whole, err := embrace.TrainSeq(cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Vertical = true
	split, err := embrace.TrainSeq(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("GRU sequence model, 4 workers, per-token sparse gradients + Algorithm 1:")
	for i := 0; i < cfg.Steps-1; i += 6 {
		fmt.Printf("  step %3d  loss %.4f\n", i+1, split.Losses[i])
	}
	fmt.Printf("  step %3d  loss %.4f\n", cfg.Steps, split.Losses[cfg.Steps-1])
	same := true
	for i := range whole.Losses {
		same = same && whole.Losses[i] == split.Losses[i]
	}
	fmt.Printf("  split losses equal whole-update losses bit for bit: %v\n", same)
	if !same {
		log.Fatal("the modified Adam's split updates diverged from whole updates")
	}

	// The split gathers the coalesced gradient in two parts: rows the next
	// batch reads again (prior, applied before its forward pass) and the
	// rest (delayed). Together they carry what one whole AllGather would.
	grad := whole.CommPerOp["emb/grad"]
	prior, delayed := split.CommPerOp["emb/prior"], split.CommPerOp["emb/delayed"]
	fmt.Printf("\nembedding-gradient AllGather over %d steps (all ranks):\n", cfg.Steps)
	fmt.Printf("  whole    %6d messages  %8.1f KB\n", grad.Messages, float64(grad.Bytes)/1024)
	fmt.Printf("  prior    %6d messages  %8.1f KB\n", prior.Messages, float64(prior.Bytes)/1024)
	fmt.Printf("  delayed  %6d messages  %8.1f KB\n", delayed.Messages, float64(delayed.Bytes)/1024)

	// The same machinery on real text: a tokenizer is built from the
	// sentences, each worker takes an interleaved shard, and vertical
	// scheduling splits the real per-token gradients.
	text := []string{
		"the old man went to the sea",
		"the sea was calm and the wind was cold",
		"the old man cast his net into the sea",
		"the net came back empty and the man waited",
		"the wind rose and the sea grew rough",
		"the man pulled the net from the rough sea",
		"the cold wind cut through the old net",
		"the sea gave the man a great fish",
	}
	res, err := embrace.TrainSeq(embrace.SeqTrainConfig{
		Workers:        2,
		Steps:          40,
		Window:         5,
		Vocab:          64,
		BatchSentences: 4,
		Vertical:       true,
		Seed:           3,
		Text:           text,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreal text (%d sentences): loss %.3f -> %.3f, final next-word accuracy %.0f%%\n",
		len(text), res.Losses[0], res.Losses[len(res.Losses)-1],
		100*res.Accuracies[len(res.Accuracies)-1])
}
