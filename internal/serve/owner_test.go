package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/nn"
)

// TestFetchMessagesPerRemoteRow pins the owner-addressed traffic: a row the
// driver does not hold costs one request to its owner and one reply — no
// other rank hears about it — and a column-wise row costs one round trip to
// each of the R-1 other ranks.
func TestFetchMessagesPerRemoteRow(t *testing.T) {
	const ranks = 4
	m := nn.NewModel(42, testVocab, testDim, testHid)
	ref := reference{m}
	for _, tc := range []struct {
		part string
		want int64
	}{
		{PartRowHash, 2},
		{PartColumn, 2 * (ranks - 1)},
	} {
		t.Run(tc.part, func(t *testing.T) {
			c, err := New(ckptOf(m, 1), Config{Ranks: ranks, Partition: tc.part, MaxBatch: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			id := int64(0)
			for rowOwner(PartRowHash, id, ranks) == 0 {
				id++
			}
			got, err := c.Lookup(context.Background(), []int64{id})
			if err != nil {
				t.Fatal(err)
			}
			if !rowsEqual(got, ref.lookup([]int64{id})) {
				t.Fatalf("lookup %d returned wrong row", id)
			}
			per := c.Stats().CommPerOp
			var total int64
			for _, st := range per {
				total += st.Messages
			}
			if total != tc.want {
				t.Errorf("one remote row cost %d messages (%v), want %d", total, per, tc.want)
			}
			if req, rows := per[opReq].Messages, per[opRows].Messages; req != tc.want/2 || rows != tc.want/2 {
				t.Errorf("%s/%s messages = %d/%d, want %d each", opReq, opRows, req, rows, tc.want/2)
			}
		})
	}
}

// TestStaleResponseDiscarded delays one fetch message past RecvTimeout, so
// the batch waiting on it fails with comm.ErrTimeout and its reply arrives
// late. The handler must keep serving, and the driver must drop the late
// reply (its batch id is stale) and answer the next lookup with exact rows.
// Both the request and the reply leg are delayed in turn.
func TestStaleResponseDiscarded(t *testing.T) {
	const (
		ranks    = 2
		timeout  = 20 * time.Millisecond
		maxDelay = 300 * time.Millisecond
	)
	m := nn.NewModel(43, testVocab, testDim, testHid)
	ref := reference{m}
	var remote []int64
	for id := int64(0); id < testVocab; id++ {
		if rowOwner(PartRowHash, id, ranks) == 1 {
			remote = append(remote, id)
		}
	}
	for _, tc := range []struct {
		name     string
		from, to int
		op       string
	}{
		{"late-request", 0, 1, opReq},
		{"late-reply", 1, 0, opRows},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tag, err := collective.TagOf(tc.op, 0)
			if err != nil {
				t.Fatal(err)
			}
			late := comm.Rule(comm.FaultDelay, 1)
			late.From, late.To, late.MaxDelay = tc.from, tc.to, maxDelay
			late.Match = func(pt comm.FaultPoint) bool { return pt.Tag == tag && pt.Index == 0 }
			plan := comm.FaultPlan{Seed: 3, Rules: []comm.FaultRule{late}}
			c, err := New(ckptOf(m, 1), Config{
				Ranks: ranks, Partition: PartRowHash, MaxBatch: 1,
				Chaos: &plan, RecvTimeout: timeout,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			if _, err := c.Lookup(context.Background(), remote[:1]); !errors.Is(err, comm.ErrTimeout) {
				t.Fatalf("first lookup err = %v, want comm.ErrTimeout (the injected delay must outlast RecvTimeout)", err)
			}
			time.Sleep(maxDelay + 50*time.Millisecond) // the late message lands
			for _, ids := range [][]int64{remote[1:3], remote[:1]} {
				got, err := c.Lookup(context.Background(), ids)
				if err != nil {
					t.Fatalf("lookup %v after the late message: %v", ids, err)
				}
				if !rowsEqual(got, ref.lookup(ids)) {
					t.Fatalf("lookup %v after the late message returned wrong rows", ids)
				}
			}
			if err := c.Err(); err != nil {
				t.Fatalf("cluster error: %v", err)
			}
		})
	}
}

// TestShardCrashIsolated kills a shard rank that is no driver. Only the
// requests that need its rows may fail, with comm.ErrPeerDown: rows owned by
// the live ranks still come back bit-exact from every driver, the dead
// rank's rows already replicated in the hot set still serve, and in a mixed
// batch the requests that avoid the dead rank are answered. Close completes.
func TestShardCrashIsolated(t *testing.T) {
	const (
		ranks   = 4
		drivers = 2
		dead    = 3
	)
	m := nn.NewModel(44, testVocab, testDim, testHid)
	ref := reference{m}

	var armed atomic.Bool
	crash := comm.Rule(comm.FaultCrash, 1)
	crash.From = dead
	crash.Match = func(comm.FaultPoint) bool { return armed.Load() }
	plan := comm.FaultPlan{Seed: 1, Rules: []comm.FaultRule{crash}}
	c, err := New(ckptOf(m, 1), Config{
		Ranks:      ranks,
		Drivers:    drivers,
		Partition:  PartRowHash,
		HotRows:    2,
		HotPromote: 3,
		// MaxBatch 3 closes the mixed batch below as soon as its three
		// requests arrive; the window only bounds the lone lookups.
		MaxBatch:    3,
		BatchWindow: 100 * time.Millisecond,
		Chaos:       &plan,
		RecvTimeout: 5 * time.Second, // hang insurance; the crash must surface as ErrPeerDown
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var live, deadRows []int64
	for id := int64(0); id < testVocab; id++ {
		if rowOwner(PartRowHash, id, ranks) == dead {
			deadRows = append(deadRows, id)
		} else {
			live = append(live, id)
		}
	}
	hot, cold := deadRows[:2], deadRows[2:]
	ctx := context.Background()
	lookup := func(d int, ids []int64) error {
		got, err := c.RouterAt(d).Lookup(ctx, ids)
		if err == nil && !rowsEqual(got, ref.lookup(ids)) {
			return fmt.Errorf("driver %d lookup %v returned wrong rows", d, ids)
		}
		return err
	}
	// concurrently submits every request to driver d at once, so they share
	// batches, and returns each one's error.
	concurrently := func(d int, reqs [][]int64) []error {
		errs := make([]error, len(reqs))
		var wg sync.WaitGroup
		for i, ids := range reqs {
			wg.Add(1)
			go func() { defer wg.Done(); errs[i] = lookup(d, ids) }()
		}
		wg.Wait()
		return errs
	}

	// Replicate two of the doomed rank's rows while it is alive.
	for i := 0; i < 3; i++ {
		if err := lookup(0, hot); err != nil {
			t.Fatal(err)
		}
	}
	if res := c.Stats().Hot.Resident; res != int64(len(hot)) {
		t.Fatalf("hot residents = %d after warmup, want %d", res, len(hot))
	}

	armed.Store(true)
	if err := lookup(1, cold[:1]); !errors.Is(err, comm.ErrPeerDown) {
		t.Fatalf("lookup that crashed rank %d: err = %v, want comm.ErrPeerDown", dead, err)
	}
	if n := c.FaultsInjected()["crash"]; n != 1 {
		t.Fatalf("crashes injected = %d, want 1", n)
	}

	for d := 0; d < drivers; d++ {
		if err := lookup(d, live); err != nil {
			t.Errorf("driver %d, live ranks' rows: %v", d, err)
		}
		if err := lookup(d, hot); err != nil {
			t.Errorf("driver %d, replicated rows of the dead rank: %v", d, err)
		}
		var singles [][]int64
		for _, id := range cold {
			singles = append(singles, []int64{id})
		}
		for i, err := range concurrently(d, singles) {
			if !errors.Is(err, comm.ErrPeerDown) {
				t.Errorf("driver %d, dead rank's row %d: err = %v, want comm.ErrPeerDown", d, cold[i], err)
			}
		}
	}

	// One batch mixing a live-only request, a request needing the dead rank,
	// and a request served by the hot set plus live ranks.
	mixed := [][]int64{live[:4], {live[4], cold[0]}, {hot[0], live[5], hot[1]}}
	before := c.DriverStats(0).Batches
	errs := concurrently(0, mixed)
	if n := c.DriverStats(0).Batches - before; n != 1 {
		t.Fatalf("mixed requests rode %d batches, want 1", n)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("mixed batch: requests avoiding rank %d failed: %v, %v", dead, errs[0], errs[2])
	}
	if !errors.Is(errs[1], comm.ErrPeerDown) {
		t.Errorf("mixed batch: request needing rank %d: err = %v, want comm.ErrPeerDown", dead, errs[1])
	}

	done := make(chan struct{})
	go func() { c.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged after shard crash")
	}
}

// TestIdleHandlerNoFaults leaves a 2-rank cluster with a short RecvTimeout
// idle for several timeout periods. Each shard handler's listen times out
// every period; that is idle time, not a fault, so serve/req must show no
// fatal faults, and a lookup afterwards still answers.
func TestIdleHandlerNoFaults(t *testing.T) {
	const (
		ranks   = 2
		timeout = 10 * time.Millisecond
	)
	m := nn.NewModel(45, testVocab, testDim, testHid)
	c, err := New(ckptOf(m, 1), Config{
		Ranks: ranks, Partition: PartRowHash, MaxBatch: 1, RecvTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	time.Sleep(8 * timeout)
	if got := c.Stats().CommPerOp[opReq].FaultsFatal; got != 0 {
		t.Fatalf("%s recorded %d fatal faults on an idle cluster, want 0", opReq, got)
	}
	id := int64(0)
	for rowOwner(PartRowHash, id, ranks) == 0 {
		id++
	}
	got, err := c.Lookup(context.Background(), []int64{id})
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(got, reference{m}.lookup([]int64{id})) {
		t.Fatalf("lookup %d after idling returned wrong row", id)
	}
}
