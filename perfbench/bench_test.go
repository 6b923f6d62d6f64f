package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"embrace/internal/strategies"
	"embrace/internal/trace"
)

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0.001: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestSelfTimeAndOverlap(t *testing.T) {
	parent := interval{ms(0), ms(100)}
	// Two overlapping children cover [10, 40); one sticks out past the end.
	kids := []interval{{ms(10), ms(30)}, {ms(20), ms(40)}, {ms(90), ms(120)}}
	if got := selfTime(parent, kids); got != ms(60) {
		t.Errorf("selfTime = %v, want 60ms", got)
	}
	if got := selfTime(parent, nil); got != ms(100) {
		t.Errorf("selfTime without children = %v, want 100ms", got)
	}
	bg := []interval{{ms(0), ms(50)}, {ms(100), ms(150)}}
	fg := []interval{{ms(25), ms(125)}}
	if got := overlapFrac(bg, fg); got != 0.5 {
		t.Errorf("overlapFrac = %v, want 0.5", got)
	}
	if got := overlapFrac(nil, fg); got != 0 {
		t.Errorf("overlapFrac with no background = %v, want 0", got)
	}
}

// tickClock returns a clock that reads the given instants (in ms) in turn.
func tickClock(instants ...int) trace.Clock {
	i := 0
	return func() time.Duration {
		d := ms(instants[i])
		i++
		return d
	}
}

func TestPhaseTimes(t *testing.T) {
	// One rank, one timed step of 100ms: fp [10,30), a dense exchange
	// [30,50), and a token gather on the network track [0,10). The delayed
	// exchange [40,80) overlaps the dense exchange for 10 of its 40ms.
	tr := trace.NewRecorder(0, trace.WithClock(tickClock(0, 10, 10, 30, 30, 50, 40, 80, 100)))
	step := tr.Begin(trace.TrackCompute, spanStep, 1)
	// Record closes the network span "now", so it covers [0, 10).
	tr.Record(trace.TrackNetwork, strategies.OpTokens, -1, ms(10))
	fp := tr.Begin(trace.TrackCompute, strategies.SpanFP, 1)
	fp.End()
	dense := tr.Begin(trace.TrackCompute, strategies.SpanDense("w1"), 1)
	dense.End()
	bg := tr.Begin(trace.TrackBackground, strategies.SpanDelayedExchange, 1)
	bg.End()
	step.End()

	out := newOutcome()
	phaseTimes(out, []*trace.Recorder{tr}, 1)
	want := map[string]float64{
		"strategies.self_ms.fp":           20,
		"strategies.self_ms.xchg_dense":   20,
		"strategies.self_ms.xchg_gather":  10,
		"strategies.self_ms.step_other":   50,
		"strategies.phase_coverage":       0.5,
		"strategies.delayed_overlap_frac": 0.25,
	}
	for name, v := range want {
		if got := out.values[name]; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a := schedule(7, 2000, time.Second, serveVocab)
	b := schedule(7, 2000, time.Second, serveVocab)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 2000, time.Second, serveVocab)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("2000 req/s over 1s scheduled %d requests", n)
	}
	predicts := 0
	for i, p := range a {
		if i > 0 && p.due < a[i-1].due {
			t.Fatalf("request %d due before its predecessor", i)
		}
		if p.due >= time.Second || len(p.ids) != idsPerReq {
			t.Fatalf("request %d malformed: %+v", i, p)
		}
		for _, id := range p.ids {
			if id < 0 || id >= serveVocab {
				t.Fatalf("id %d outside the vocabulary", id)
			}
		}
		if p.predict {
			predicts++
		}
	}
	if share := float64(predicts) / float64(len(a)); share < 0.15 || share > 0.25 {
		t.Fatalf("predict share %v, want about %v", share, predictShare)
	}
}

func TestProbeShardsDeterministic(t *testing.T) {
	sh := trainProbeShape(trainSparseTCP, 3, 1024)
	if sh != trainProbeShape(trainSparseTCP, 3, 1024) {
		t.Fatal("probe shape differs between two derivations from one seed")
	}
	x := randomShard(newRand(5), sh)
	y := randomShard(newRand(5), sh)
	if !reflect.DeepEqual(x, y) {
		t.Fatal("same seed gave different probe shards")
	}
	if len(x.Indices) != sh.shardRows || len(x.Vals) != sh.shardRows*sh.shardDim {
		t.Fatalf("shard has %d rows / %d values, want %d x %d", len(x.Indices), len(x.Vals), sh.shardRows, sh.shardDim)
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Name == "serve-zipf-tcp" {
			t.Errorf("workload %s is not a training workload of the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: file lists %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: file %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
