// Package data generates the synthetic NLP workloads that replace the
// paper's LM1B / WMT / SQuAD datasets.
//
// Two statistics of real corpora drive everything EmbRace exploits, and both
// are reproduced here: word frequencies are Zipf-distributed (so batches
// carry many duplicate tokens and touch a small, skewed subset of the
// vocabulary), and sentences are padded to a uniform length (so the pad
// token repeats heavily). Together they make the embedding gradient sparse
// and highly coalescible (§4.2.2, Table 3).
package data

import (
	"fmt"
	"math/rand"

	"embrace/internal/tensor"
)

// PadID is the token id used for sentence padding; it is part of the
// vocabulary (row 0 of the embedding), as with the tokenizers the paper
// cites: pad positions still produce embedding gradient rows, which is one
// of the duplicate sources Algorithm 1 coalesces away.
const PadID int64 = 0

// Config describes a synthetic corpus.
type Config struct {
	// VocabSize is the number of distinct tokens including the pad token.
	VocabSize int
	// BatchSentences is the number of sentences per batch per worker (the
	// paper's per-worker batch size).
	BatchSentences int
	// MaxSeqLen is the padded sentence length.
	MaxSeqLen int
	// MinSeqLen is the smallest generated sentence length before padding.
	MinSeqLen int
	// ZipfS is the Zipf exponent (>1). Larger values skew harder toward
	// frequent words, increasing duplicates and shrinking the unique set.
	ZipfS float64
	// ZipfV is the Zipf v parameter (>=1); larger values flatten the head.
	ZipfV float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.VocabSize < 2 {
		return fmt.Errorf("data: vocab size %d too small", c.VocabSize)
	}
	if c.BatchSentences <= 0 {
		return fmt.Errorf("data: batch sentences %d must be positive", c.BatchSentences)
	}
	if c.MinSeqLen <= 0 || c.MaxSeqLen < c.MinSeqLen {
		return fmt.Errorf("data: bad sequence length range [%d,%d]", c.MinSeqLen, c.MaxSeqLen)
	}
	if c.ZipfS <= 1 {
		return fmt.Errorf("data: zipf s must exceed 1, got %g", c.ZipfS)
	}
	if c.ZipfV < 1 {
		return fmt.Errorf("data: zipf v must be at least 1, got %g", c.ZipfV)
	}
	return nil
}

// Batch is one padded per-worker training batch.
type Batch struct {
	// Sentences holds BatchSentences rows of MaxSeqLen token ids, padded
	// with PadID.
	Sentences [][]int64
	// NonPad counts real (non-pad) tokens — the paper's throughput metric
	// accumulates exactly these (§5.2.2).
	NonPad int
}

// Tokens returns all token ids of the batch, pads included, in order. Its
// length times the embedding row size is the "Original Grad Size" column of
// Table 3.
func (b *Batch) Tokens() []int64 {
	out := make([]int64, 0, len(b.Sentences)*len(b.Sentences[0]))
	for _, s := range b.Sentences {
		out = append(out, s...)
	}
	return out
}

// TotalTokens returns the token count including padding.
func (b *Batch) TotalTokens() int {
	n := 0
	for _, s := range b.Sentences {
		n += len(s)
	}
	return n
}

// Unique returns the sorted distinct token ids of the batch (the UNIQUE step
// of Algorithm 1). Its length is the coalesced gradient row count.
func (b *Batch) Unique() []int64 {
	return tensor.UniqueInt64(b.Tokens())
}

// Generator produces an endless stream of batches with Zipf-distributed
// tokens. It is deterministic given its seed, so every worker and every
// baseline sees an identical data order when configured identically.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
}

// NewGenerator validates cfg and creates a generator seeded with seed.
func NewGenerator(cfg Config, seed int64) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// Token ids 1..VocabSize-1 are real words; 0 is the pad.
	zipf := rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(cfg.VocabSize-2))
	return &Generator{cfg: cfg, rng: rng, zipf: zipf}, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// NextBatch synthesizes one batch: each sentence draws a length uniformly
// from [MinSeqLen, MaxSeqLen], fills it with Zipf tokens and pads the rest.
func (g *Generator) NextBatch() *Batch {
	b := &Batch{Sentences: make([][]int64, g.cfg.BatchSentences)}
	for i := range b.Sentences {
		n := g.cfg.MinSeqLen
		if g.cfg.MaxSeqLen > g.cfg.MinSeqLen {
			n += g.rng.Intn(g.cfg.MaxSeqLen - g.cfg.MinSeqLen + 1)
		}
		s := make([]int64, g.cfg.MaxSeqLen)
		for j := 0; j < n; j++ {
			s[j] = 1 + int64(g.zipf.Uint64())
		}
		for j := n; j < g.cfg.MaxSeqLen; j++ {
			s[j] = PadID
		}
		b.Sentences[i] = s
		b.NonPad += n
	}
	return b
}

// Stream is the prefetching contract Loader and TextLoader share: Next
// consumes the current batch, Peek exposes the one after it.
type Stream interface {
	Next() *Batch
	Peek() *Batch
}

// Loader wraps a Generator with one batch of lookahead — the data prefetch
// of §4.2.2. Peek exposes the next iteration's batch so Algorithm 1 can
// compute the prior/delayed split before the next forward pass begins.
type Loader struct {
	gen  *Generator
	next *Batch
}

// NewLoader builds a prefetching loader over gen.
func NewLoader(gen *Generator) *Loader {
	return &Loader{gen: gen, next: gen.NextBatch()}
}

// Next returns the current batch and advances the prefetch window.
func (l *Loader) Next() *Batch {
	cur := l.next
	l.next = l.gen.NextBatch()
	return cur
}

// Peek returns the batch the next call to Next will return, without
// consuming it.
func (l *Loader) Peek() *Batch { return l.next }

// BatchStats summarizes the gradient-size effect of Algorithm 1 on a pair of
// consecutive batches: row counts before coalescing, after coalescing, and
// for the prioritized (intersection-with-next) part. Table 3 is these
// numbers scaled by the embedding row size.
type BatchStats struct {
	OriginalRows  int
	CoalescedRows int
	PriorRows     int
	DelayedRows   int
}

// ComputeBatchStats evaluates Algorithm 1's set arithmetic for a current and
// next batch.
func ComputeBatchStats(cur, next *Batch) BatchStats {
	u := cur.Unique()
	prior := tensor.Intersect(u, next.Unique())
	return BatchStats{
		OriginalRows:  cur.TotalTokens(),
		CoalescedRows: len(u),
		PriorRows:     len(prior),
		DelayedRows:   len(u) - len(prior),
	}
}
