package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"embrace/internal/checkpoint"
	"embrace/internal/metrics"
	"embrace/internal/nn"
	"embrace/internal/tensor"
)

// ckptOf snapshots a model into the facade's checkpoint layout.
func ckptOf(m *nn.Model, step int) *checkpoint.Checkpoint {
	ck := &checkpoint.Checkpoint{
		Step:   step,
		Params: map[string]*tensor.Dense{"emb": m.Emb.Table.Clone()},
	}
	for _, p := range m.Trunk.Params() {
		ck.Params[p.Name] = p.Tensor.Clone()
	}
	return ck
}

// reference computes the single-rank, cache-free ground truth directly from
// the model: embedding rows for lookups, PoolLookup+Infer+argmax for
// predicts — the forward pass serving must reproduce bit-for-bit.
type reference struct{ m *nn.Model }

func (r reference) lookup(ids []int64) [][]float32 {
	out := make([][]float32, len(ids))
	for i, id := range ids {
		out[i] = append([]float32(nil), r.m.Emb.Table.Row(int(id))...)
	}
	return out
}

func (r reference) predict(window []int64) (int64, float32) {
	pooled := r.m.Emb.PoolLookup([][]int64{window})
	probs, err := r.m.Trunk.Infer(pooled)
	if err != nil {
		panic(err)
	}
	row := probs.Row(0)
	best := 0
	for v := 1; v < len(row); v++ {
		if row[v] > row[best] {
			best = v
		}
	}
	return int64(best), row[best]
}

func rowsEqual(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				return false
			}
		}
	}
	return true
}

const (
	testVocab = 64
	testDim   = 6
	testHid   = 5
)

// requestSet is the deterministic workload the exactness tests replay: a mix
// of single ids, duplicate-heavy lookups (dedup fodder), and windows.
func requestSet() [][]int64 {
	sets := [][]int64{
		{1}, {2}, {3, 3, 3}, {1, 2, 3, 4, 5}, {63}, {0, 63, 31},
		{7, 7, 1, 1, 2}, {40, 41, 42}, {5}, {1},
	}
	for i := 0; i < 30; i++ {
		sets = append(sets, []int64{int64(i % testVocab), int64((i * 7) % testVocab), 1})
	}
	return sets
}

// TestServingExactness is the 4-rank acceptance test: with caching on and
// batching/dedup on, under both partitioning schemes, every Lookup and
// Predict response is bit-identical to the single-rank, cache-disabled
// forward pass over the same checkpoint — including across a mid-load
// checkpoint reload.
func TestServingExactness(t *testing.T) {
	mA := nn.NewModel(1, testVocab, testDim, testHid)
	mB := nn.NewModel(2, testVocab, testDim, testHid)
	refA, refB := reference{mA}, reference{mB}
	ckA, ckB := ckptOf(mA, 10), ckptOf(mB, 20)

	for _, part := range []string{PartRowHash, PartColumn} {
		t.Run(part, func(t *testing.T) {
			c, err := New(ckA, Config{
				Ranks:       4,
				Partition:   part,
				CacheRows:   16,
				MaxBatch:    8,
				BatchWindow: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			check := func(ref reference, tag string) {
				// Concurrent submissions so micro-batching and dedup engage.
				var wg sync.WaitGroup
				errs := make(chan error, 2*len(requestSet()))
				for _, ids := range requestSet() {
					wg.Add(1)
					go func(ids []int64) {
						defer wg.Done()
						got, err := c.Lookup(context.Background(), ids)
						if err != nil {
							errs <- fmt.Errorf("%s: lookup %v: %w", tag, ids, err)
							return
						}
						if !rowsEqual(got, ref.lookup(ids)) {
							errs <- fmt.Errorf("%s: lookup %v not bit-identical", tag, ids)
						}
					}(ids)
					wg.Add(1)
					go func(ids []int64) {
						defer wg.Done()
						tok, prob, err := c.Predict(context.Background(), ids)
						if err != nil {
							errs <- fmt.Errorf("%s: predict %v: %w", tag, ids, err)
							return
						}
						wantTok, wantProb := ref.predict(ids)
						if tok != wantTok || prob != wantProb {
							errs <- fmt.Errorf("%s: predict %v = (%d, %g), want (%d, %g)",
								tag, ids, tok, prob, wantTok, wantProb)
						}
					}(ids)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
			}

			check(refA, "ckptA")
			st := c.Stats()
			if st.Coalesced == 0 {
				t.Error("dedup never coalesced a duplicate id")
			}
			if st.Cache.Hits == 0 {
				t.Error("cache never hit despite repeated hot ids")
			}

			// Zero-downtime reload: afterwards every response must be the new
			// checkpoint's, exactly as a cold boot from ckB computes it.
			if err := c.Reload(ckB); err != nil {
				t.Fatalf("reload: %v", err)
			}
			check(refB, "ckptB")
			if got := c.Stats().Reloads; got != 1 {
				t.Errorf("reloads = %d", got)
			}
			if err := c.Err(); err != nil {
				t.Fatalf("cluster error: %v", err)
			}
		})
	}
}

// TestReloadMidLoad drives concurrent traffic through a reload: every
// response must be entirely from the old checkpoint or entirely from the new
// one — never a mix — and traffic after Reload returns must be all-new.
func TestReloadMidLoad(t *testing.T) {
	mA := nn.NewModel(3, testVocab, testDim, testHid)
	mB := nn.NewModel(4, testVocab, testDim, testHid)
	refA, refB := reference{mA}, reference{mB}

	c, err := New(ckptOf(mA, 1), Config{
		Ranks:       4,
		Partition:   PartRowHash,
		CacheRows:   8,
		MaxBatch:    4,
		BatchWindow: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids := []int64{1, 2, 3, 9, 27}
	wantA, wantB := refA.lookup(ids), refB.lookup(ids)

	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := c.Lookup(context.Background(), ids)
				if err != nil {
					errs <- err
					return
				}
				if !rowsEqual(got, wantA) && !rowsEqual(got, wantB) {
					errs <- errors.New("mid-reload response mixes checkpoints")
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := c.Reload(ckptOf(mB, 2)); err != nil {
		t.Fatalf("reload: %v", err)
	}
	// After Reload returns, only ckptB answers are acceptable.
	got, err := c.Lookup(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(got, wantB) {
		t.Fatal("post-reload response is not the new checkpoint's")
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReloadEqualsColdRestart proves the equivalence the reload protocol
// promises: a reloaded cluster answers exactly like one cold-booted from the
// new checkpoint.
func TestReloadEqualsColdRestart(t *testing.T) {
	mA := nn.NewModel(5, testVocab, testDim, testHid)
	mB := nn.NewModel(6, testVocab, testDim, testHid)
	cfg := Config{Ranks: 3, Partition: PartColumn, CacheRows: 8, MaxBatch: 4, BatchWindow: 100 * time.Microsecond}

	warm, err := New(ckptOf(mA, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	// Touch rows so the cache is populated with ckptA data, then reload.
	if _, err := warm.Lookup(context.Background(), []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := warm.Reload(ckptOf(mB, 2)); err != nil {
		t.Fatal(err)
	}

	cold, err := New(ckptOf(mB, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()

	for _, ids := range requestSet() {
		w, err := warm.Lookup(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cold.Lookup(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(w, cl) {
			t.Fatalf("reloaded and cold clusters disagree on %v", ids)
		}
		wt, wp, err := warm.Predict(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		ct, cp, err := cold.Predict(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		if wt != ct || wp != cp {
			t.Fatalf("reloaded and cold predictions disagree on %v", ids)
		}
	}
}

// TestOverloaded proves admission fails fast with the typed error when the
// queue is full, without blocking.
func TestOverloaded(t *testing.T) {
	// An unattached router (no driver draining it) with a one-slot queue.
	c := &Cluster{vocab: testVocab, cfg: Config{CacheRows: 0}.withDefaults()}
	r := newRouter(c, 0, 1)
	r.queue <- &request{} // fill the queue

	done := make(chan error, 1)
	go func() {
		_, err := r.Lookup(context.Background(), []int64{1})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("err = %v, want ErrOverloaded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("overloaded admission blocked instead of failing fast")
	}
	if r.ctr.overloaded.Load() != 1 {
		t.Fatalf("overloaded counter = %d", r.ctr.overloaded.Load())
	}
}

// TestDeadlineSkipsExchange proves an admitted request whose deadline passes
// while it waits is answered ErrDeadline and never occupies an exchange
// slot: the batch it rode in triggers no cross-rank fetch.
func TestDeadlineSkipsExchange(t *testing.T) {
	m := nn.NewModel(7, testVocab, testDim, testHid)
	c, err := New(ckptOf(m, 1), Config{
		Ranks:       4,
		Partition:   PartRowHash,
		MaxBatch:    8,
		BatchWindow: 50 * time.Millisecond, // far longer than the deadline
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// Id 1 is remote for rank 0 under row-hash with 4 ranks, so serving it
	// would require an exchange — unless the deadline drops it first.
	_, err = c.Lookup(ctx, []int64{1})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	st := c.Stats()
	if st.Expired != 1 {
		t.Errorf("expired = %d, want 1", st.Expired)
	}
	if st.Exchanges != 0 {
		t.Errorf("exchanges = %d, want 0 (expired request occupied an exchange slot)", st.Exchanges)
	}

	// An already-expired context is refused at admission, before the queue.
	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond)
	if _, err := c.Lookup(expired, []int64{1}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("pre-expired err = %v, want ErrDeadline", err)
	}
}

// TestClosedCluster proves requests after Close fail with ErrClosed and that
// Close is idempotent.
func TestClosedCluster(t *testing.T) {
	m := nn.NewModel(8, testVocab, testDim, testHid)
	c, err := New(ckptOf(m, 1), Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	if _, err := c.Lookup(context.Background(), []int64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := c.Reload(ckptOf(m, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("reload err = %v, want ErrClosed", err)
	}
}

// TestBadRequests covers id validation and config validation.
func TestBadRequests(t *testing.T) {
	m := nn.NewModel(9, testVocab, testDim, testHid)
	if _, err := New(ckptOf(m, 1), Config{Partition: "diagonal"}); err == nil {
		t.Fatal("bogus partition accepted")
	}
	ck := ckptOf(m, 1)
	delete(ck.Params, "w2")
	if _, err := New(ck, Config{}); err == nil {
		t.Fatal("missing trunk param accepted")
	}

	c, err := New(ckptOf(m, 1), Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lookup(context.Background(), []int64{-1}); err == nil {
		t.Fatal("negative id accepted")
	}
	if _, err := c.Lookup(context.Background(), []int64{testVocab}); err == nil {
		t.Fatal("out-of-vocab id accepted")
	}
	// Reload with a mismatched shape is rejected before any rank commits.
	if err := c.Reload(ckptOf(nn.NewModel(9, testVocab, testDim+2, testHid), 2)); err == nil {
		t.Fatal("shape-mismatched reload accepted")
	}
	if _, err := c.Lookup(context.Background(), []int64{1}); err != nil {
		t.Fatalf("cluster broken after rejected reload: %v", err)
	}
}

// TestCacheEviction bounds residency at CacheRows and counts evictions.
func TestCacheEviction(t *testing.T) {
	var ctr metrics.CacheCounters
	lru := newLRUCache(2, &ctr)
	lru.put(1, []float32{1})
	lru.put(2, []float32{2})
	lru.get(1) // promote 1; 2 is now coldest
	lru.put(3, []float32{3})
	if _, ok := lru.get(2); ok {
		t.Fatal("coldest entry survived eviction")
	}
	if _, ok := lru.get(1); !ok {
		t.Fatal("promoted entry evicted")
	}
	if lru.len() != 2 {
		t.Fatalf("len = %d", lru.len())
	}
	s := ctr.Snapshot()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d", s.Evictions)
	}
	lru.clear()
	if lru.len() != 0 {
		t.Fatal("clear left residents")
	}
	// Nil cache (disabled) is inert.
	var off *lruCache
	off.put(1, []float32{1})
	if _, ok := off.get(1); ok {
		t.Fatal("nil cache hit")
	}
}

// TestLoadGenerator smoke-tests the closed-loop generator and the stats
// surface it depends on.
func TestLoadGenerator(t *testing.T) {
	m := nn.NewModel(10, testVocab, testDim, testHid)
	c, err := New(ckptOf(m, 1), Config{
		Ranks:       2,
		CacheRows:   32,
		MaxBatch:    8,
		BatchWindow: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep := RunLoad(c, LoadConfig{Clients: 3, Requests: 40, IDsPerRequest: 3, Seed: 42})
	if rep.Requests != 120 || rep.Errors != 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.QPS <= 0 || rep.Latency.Count != 120 {
		t.Fatalf("report %+v", rep)
	}
	st := c.Stats()
	if st.Requests != 120 || st.Lookups != 120 {
		t.Fatalf("stats %+v", st)
	}
	if st.Cache.Hits == 0 {
		t.Error("Zipf load produced no cache hits")
	}
	if st.Batches == 0 || st.Latency.Count != 120 {
		t.Fatalf("stats %+v", st)
	}
	// Predict workload too.
	rep = RunLoad(c, LoadConfig{Clients: 2, Requests: 10, IDsPerRequest: 4, Predict: true, Seed: 7})
	if rep.Errors != 0 || c.Stats().Predicts != 20 {
		t.Fatalf("predict load %+v", rep)
	}
}

// TestTraceSpans proves batches leave queue-wait/exchange/forward spans on
// the driver's recorder.
func TestTraceSpans(t *testing.T) {
	m := nn.NewModel(11, testVocab, testDim, testHid)
	c, err := New(ckptOf(m, 1), Config{
		Ranks:       2,
		Partition:   PartRowHash,
		MaxBatch:    4,
		BatchWindow: 100 * time.Microsecond,
		Trace:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.Predict(context.Background(), []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range c.Tracers()[0].Spans() {
		names[sp.Name] = true
	}
	for _, want := range []string{"serve/queue-wait", "serve/fwd"} {
		if !names[want] {
			t.Errorf("driver trace missing %q span (have %v)", want, names)
		}
	}
	// The exchange lane appears once a remote row is fetched.
	foundXchg := names["serve/xchg"]
	if !foundXchg {
		t.Errorf("driver trace missing serve/xchg span (have %v)", names)
	}
}
