// Package comm is a fixture standing in for the transport layer: the chaos
// fault injector promises replay-from-seed, so wall-clock reads and global
// randomness are forbidden here too.
package comm

import (
	"math/rand"
	"time"
)

// chaosStream mirrors the injector's per-stream state: a seeded generator is
// the approved pattern.
type chaosStream struct {
	rng *rand.Rand
}

func newStream(seed int64) *chaosStream {
	return &chaosStream{rng: rand.New(rand.NewSource(seed))} // constructors are fine
}

// decide draws fault decisions only from the stream's own generator.
func (s *chaosStream) decide(rate float64) bool {
	return s.rng.Float64() < rate // method on a plumbed generator: fine
}

// delayFor shows the legal use of time: an already-decided delay may sleep,
// because sleeping is not a clock read.
func delayFor(d time.Duration) {
	time.Sleep(d)
}

func flagged() time.Duration {
	start := time.Now()       // want `time\.Now reads the wall clock in deterministic package comm`
	if rand.Float64() < 0.5 { // want `global rand\.Float64 in deterministic package comm`
		return 0
	}
	return time.Since(start) // want `time\.Since reads the wall clock in deterministic package comm`
}
