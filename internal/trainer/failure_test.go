package trainer

import (
	"strings"
	"testing"

	"embrace/internal/strategies"
)

// Misconfiguration must fail fast with a descriptive error — the job never
// starts a world it cannot finish.
func TestRankFailurePropagates(t *testing.T) {
	j := testJob(strategies.EmbRace, 4)
	j.Model.EmbDim = 9 // not divisible by 4 workers
	_, err := Run(j)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "divisible") {
		t.Fatalf("error %q should explain the divisibility constraint", err)
	}
}

func TestSeqRunWorkerCountMismatchFailsFast(t *testing.T) {
	j := seqJob()
	j.Workers = -1
	if _, err := Run(j); err == nil {
		t.Fatal("expected validation error")
	}
}
