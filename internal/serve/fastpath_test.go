package serve

import (
	"context"
	"testing"
	"time"

	"embrace/internal/nn"
	"embrace/internal/partition"
)

// TestDriverOwnedLookupFastPath pins the zero-pack fast path: under the
// row-hash partition, a workload made entirely of driver-owned ids must
// resolve straight from rank 0's shard storage — no exchange rounds, no rows
// packed into sparse payloads anywhere in the cluster — while still returning
// bit-identical rows. One remote-owned id then flips every one of those
// counters, proving they measure what they claim.
func TestDriverOwnedLookupFastPath(t *testing.T) {
	const ranks = 3
	m := nn.NewModel(5, testVocab, testDim, testHid)
	ref := reference{m}

	c, err := New(ckptOf(m, 1), Config{
		Ranks:     ranks,
		Partition: PartRowHash,
		// Cache off so local resolution is exercised by the shard fast
		// path itself, not masked by front-end hits.
		CacheRows:   0,
		MaxBatch:    8,
		BatchWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var mine, theirs []int64
	for id := int64(0); id < testVocab; id++ {
		if (partition.RowHash{}).Owner(id, ranks) == 0 {
			mine = append(mine, id)
		} else {
			theirs = append(theirs, id)
		}
	}
	if len(mine) == 0 || len(theirs) == 0 {
		t.Fatalf("degenerate ownership split: %d driver-owned, %d remote", len(mine), len(theirs))
	}

	ctx := context.Background()
	for start := 0; start < len(mine); start += 4 {
		end := min(start+4, len(mine))
		ids := mine[start:end]
		got, err := c.Lookup(ctx, ids)
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(got, ref.lookup(ids)) {
			t.Fatalf("driver-owned lookup %v returned wrong rows", ids)
		}
	}

	st := c.Stats()
	if st.Exchanges != 0 {
		t.Errorf("driver-owned workload ran %d exchanges, want 0", st.Exchanges)
	}
	if st.Packed != 0 {
		t.Errorf("driver-owned workload packed %d rows, want 0", st.Packed)
	}
	if st.LocalRows == 0 {
		t.Error("driver-owned workload resolved no local rows")
	}
	if st.RemoteRows != 0 {
		t.Errorf("driver-owned workload counted %d remote rows, want 0", st.RemoteRows)
	}

	// One remote-owned id forces a fetch from its owner and its packing.
	remote := theirs[:1]
	got, err := c.Lookup(ctx, remote)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(got, ref.lookup(remote)) {
		t.Fatalf("remote lookup %v returned wrong rows", remote)
	}
	st = c.Stats()
	if st.Exchanges == 0 {
		t.Error("remote-owned lookup ran no exchange")
	}
	if st.Packed == 0 {
		t.Error("remote-owned lookup packed no rows")
	}
	if st.RemoteRows == 0 {
		t.Error("remote-owned lookup counted no remote rows")
	}
}
