package trainer

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"embrace/internal/strategies"
	"embrace/internal/trace"
)

// tracedJob returns the standard small test job with tracing enabled under
// the EmbRace 2D schedule, the configuration whose timeline exercises every
// span kind (lookup, exchanges, vertical split, background delayed lane).
func tracedJob(workers, steps int) Job {
	job := testJob(strategies.EmbRace, workers)
	job.Steps = steps
	job.Model.Sched = strategies.Sched2D
	job.Model.Optimizer = strategies.OptAdam
	job.Model.LR = 0.01
	job.Trace = true
	return job
}

// spansOf filters one recorder's spans by name.
func spansOf(r *trace.Recorder, name string) []trace.Span {
	var out []trace.Span
	for _, s := range r.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func TestTraceDisabledLeavesResultBare(t *testing.T) {
	job := testJob(strategies.EmbRace, 2)
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces != nil || res.PhaseSeconds != nil {
		t.Fatalf("tracing off must leave Traces/PhaseSeconds nil, got %d traces", len(res.Traces))
	}
}

func TestTraceRunRecordsEveryRank(t *testing.T) {
	gru := seqJob()
	gru.Workers = 2
	gru.Steps = 4
	gru.Model.Sched = strategies.Sched2D
	gru.Trace = true
	for _, tc := range []struct {
		job    Job
		phases []string
	}{
		{tracedJob(2, 4), []string{"step", strategies.SpanFP, strategies.SpanBP,
			strategies.SpanPriorExchange, strategies.SpanDelayedExchange, strategies.SpanVSplit}},
		{gru, []string{"step", strategies.SpanFPBP,
			strategies.SpanPriorExchange, strategies.SpanDelayedExchange, strategies.SpanVSplit}},
	} {
		job := tc.job
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Traces) != 2 {
			t.Fatalf("%d traces, want 2", len(res.Traces))
		}
		for rank, r := range res.Traces {
			if r == nil {
				t.Fatalf("rank %d recorder missing", rank)
			}
			if r.Rank() != rank {
				t.Fatalf("trace slot %d holds rank %d", rank, r.Rank())
			}
			steps := spansOf(r, "step")
			if len(steps) != job.Steps {
				t.Fatalf("rank %d: %d step spans, want %d", rank, len(steps), job.Steps)
			}
		}
		for _, phase := range tc.phases {
			if res.PhaseSeconds[phase] <= 0 {
				t.Fatalf("PhaseSeconds[%q] = %g, want > 0", phase, res.PhaseSeconds[phase])
			}
		}
	}
}

// TestTraceChromeExportGolden checks the exported JSON end to end: it
// parses, every complete event has positive duration, per-rank compute
// spans nest inside their step span, and the prior exchange of step k
// finishes before step k+1 harvests the delayed half — the ordering
// Algorithm 1 requires.
func TestTraceChromeExportGolden(t *testing.T) {
	job := tracedJob(2, 4)
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := trace.ExportRecorders(&buf, "golden", res.Traces); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	for _, e := range parsed.TraceEvents {
		if e["ph"] != "X" {
			continue
		}
		if e["dur"].(float64) <= 0 {
			t.Fatalf("non-positive duration: %v", e)
		}
		pids[e["pid"].(float64)] = true
	}
	if len(pids) != 2 {
		t.Fatalf("pids %v, want one process per rank", pids)
	}

	for rank, r := range res.Traces {
		// Every compute-track span of step k nests inside that step's
		// "step" span: the step loop Begins before the worker and Ends
		// after it, all on one goroutine and one clock.
		stepSpan := map[int]trace.Span{}
		for _, s := range spansOf(r, "step") {
			stepSpan[s.Step] = s
		}
		for _, s := range r.Spans() {
			if s.Track != trace.TrackCompute || s.Step < 0 || s.Name == "step" {
				continue
			}
			outer, ok := stepSpan[s.Step]
			if !ok {
				t.Fatalf("rank %d: span %q has step %d with no step span", rank, s.Name, s.Step)
			}
			if s.Start < outer.Start || s.End() > outer.End() {
				t.Fatalf("rank %d: %q [%v,%v] escapes step %d [%v,%v]",
					rank, s.Name, s.Start, s.End(), s.Step, outer.Start, outer.End())
			}
		}
		// Ordering: step k's prior exchange completes before step k+1
		// harvests the delayed remainder.
		prior := map[int]trace.Span{}
		for _, s := range spansOf(r, strategies.SpanPriorExchange) {
			prior[s.Step] = s
		}
		for _, h := range spansOf(r, strategies.SpanHarvestDelayed) {
			if h.Step < 1 {
				continue // the final FullEmbedding harvest runs outside the step loop
			}
			p, ok := prior[h.Step-1]
			if !ok {
				t.Fatalf("rank %d: harvest at step %d without prior exchange at %d", rank, h.Step, h.Step-1)
			}
			if p.End() > h.Start {
				t.Fatalf("rank %d: prior exchange of step %d ends %v, after harvest of step %d starts %v",
					rank, h.Step-1, p.End(), h.Step, h.Start)
			}
		}
	}
}

// TestTraceDelayedOverlapsNextStep is the acceptance criterion of §4.2.2
// made a test: on some rank, the background delayed-gradient AlltoAll span
// of step k overlaps a compute span of step k+1. The overlap depends on
// goroutine scheduling, so a few attempts are allowed before failing.
func TestTraceDelayedOverlapsNextStep(t *testing.T) {
	job := tracedJob(4, 8)
	// A heavier model keeps the background exchange in flight long enough
	// to reach into the next step.
	job.Model.Vocab = 400
	job.Data.VocabSize = 400
	job.Model.EmbDim = 32
	job.Model.Hidden = 16
	job.Data.BatchSentences = 16
	for attempt := 0; attempt < 3; attempt++ {
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Traces {
			for _, d := range spansOf(r, strategies.SpanDelayedExchange) {
				if d.Track != trace.TrackBackground {
					t.Fatalf("delayed exchange on track %d", d.Track)
				}
				for _, s := range r.Spans() {
					if s.Track == trace.TrackCompute && s.Step == d.Step+1 && d.Overlaps(s) {
						return // overlap observed: delayed comm hid behind next step's work
					}
				}
			}
		}
	}
	t.Fatal("no delayed-exchange span overlapped the following step's compute in 3 runs")
}

func TestTraceInjectedClock(t *testing.T) {
	var tick atomic.Int64
	job := tracedJob(2, 2)
	job.TraceClock = func() time.Duration {
		return time.Duration(tick.Add(1)) * time.Microsecond
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Traces {
		for _, s := range r.Spans() {
			if s.Track != trace.TrackCompute {
				continue // observer spans mix in the collective's own timing
			}
			if s.Start%time.Microsecond != 0 {
				t.Fatalf("span %q start %v not on the injected tick grid", s.Name, s.Start)
			}
		}
	}
	if tick.Load() == 0 {
		t.Fatal("injected clock never consulted")
	}
}
