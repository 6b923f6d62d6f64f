package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"embrace/internal/checkpoint"
	"embrace/internal/metrics"
	"embrace/internal/nn"
	"embrace/internal/serve"
	"embrace/internal/trace"
)

// The serve-zipf-tcp workload: 4 ranks over TCP, 2 drivers, consistent
// hashing, a 256-row LRU per driver and a 256-row hot set, open-loop Zipf
// traffic of 80% Lookup and 20% Predict with 4 ids each.
const (
	serveRanks   = 4
	serveDrivers = 2
	serveVocab   = 4096
	serveDim     = 32
	serveHidden  = 16
	idsPerReq    = 4
	predictShare = 0.2

	lowRate  = 2000.0 // req/s of the p50_ms/tail_ms segment
	highRate = 8000.0 // req/s of the traced run's loaded segment

	// The SLO max_qps_slo searches against: p99 within sloP99MS with
	// failed and refused requests counted as misses, and at least
	// sloCompleted of the offered requests answered.
	sloP99MS     = 50.0
	sloCompleted = 0.98
	// The search walks a geometric grid of rates gridStep apart (finer
	// than a tenth) from lowRate/gridStep^gridBelow to lowRate*gridStep^gridAbove.
	gridStep  = 1.04
	gridBelow = 36
	gridAbove = 72

	reqTimeout     = 500 * time.Millisecond
	maxInflight    = 4096 // the generator refuses a due request beyond this many in flight
	sloWindows     = 3    // a search probe passes when the majority of this many windows holds the SLO
	lowBlocks      = 8    // the low-rate measurement's blocks
	probesPerBlock = 2    // search probes run after each low-rate block
)

func serveConfig(traced bool) serve.Config {
	return serve.Config{
		Ranks: serveRanks, Drivers: serveDrivers, Partition: serve.PartConsistent,
		CacheRows: 256, HotRows: 256, HotPromote: 2, QueueDepth: 1024,
		TCP: true, Trace: traced,
	}
}

// planned is one request of an open-loop schedule.
type planned struct {
	due     time.Duration
	predict bool
	ids     []int64
}

// schedule draws a seeded Poisson arrival schedule at rate req/s over dur,
// each request a Lookup or (with predictShare) a Predict of idsPerReq
// Zipf(1.3, 2) ids.
func schedule(seed int64, rate float64, dur time.Duration, vocab int) []planned {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 2, uint64(vocab-1))
	var out []planned
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		p := planned{due: time.Duration(t * 1e9), predict: rng.Float64() < predictShare, ids: make([]int64, idsPerReq)}
		for i := range p.ids {
			p.ids[i] = int64(zipf.Uint64())
		}
		out = append(out, p)
	}
}

// errInflight marks a request the generator refused because maxInflight
// requests were already outstanding.
var errInflight = errors.New("generator in-flight bound reached")

// answer is one request's outcome.
type answer struct {
	lat   time.Duration // completion minus due time
	late  time.Duration // dispatch minus due time
	err   error
	token int64
	prob  float32
}

// segment is the outcome of one open-loop schedule.
type segment struct {
	plan    []planned
	answers []answer
	dur     time.Duration // measured: from the start to the last dispatch
}

// runSegment replays plan against the cluster open loop: one goroutine
// wakes, dispatches every request already due, and sleeps until the next.
// Each request is timed from its due time, so a stall also delays the
// requests queued behind it. Lookup rows are checked against emb as they
// arrive; Predict answers are checked after the segment.
func runSegment(c *serve.Cluster, plan []planned, ref *serveRef) (segment, error) {
	runtime.GC()
	seg := segment{plan: plan, answers: make([]answer, len(plan))}
	var wrong atomic.Int64
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < len(plan); {
		now := time.Since(start)
		if plan[i].due > now {
			time.Sleep(plan[i].due - now)
			continue
		}
		for ; i < len(plan) && plan[i].due <= now; i++ {
			seg.answers[i].late = now - plan[i].due
			select {
			case sem <- struct{}{}:
			default:
				seg.answers[i].err = errInflight
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				p, a := plan[i], &seg.answers[i]
				ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
				defer cancel()
				if p.predict {
					a.token, a.prob, a.err = c.Predict(ctx, p.ids)
				} else {
					var rows [][]float32
					rows, a.err = c.Lookup(ctx, p.ids)
					if a.err == nil && !ref.rowsMatch(p.ids, rows) {
						wrong.Add(1)
					}
				}
				a.lat = time.Since(start) - p.due
			}(i)
		}
	}
	seg.dur = time.Since(start)
	wg.Wait()
	if n := wrong.Load(); n > 0 {
		return seg, fmt.Errorf("%w: %d lookups returned rows that differ from the checkpoint", errIncorrect, n)
	}
	for i, p := range plan {
		a := seg.answers[i]
		if p.predict && a.err == nil && !ref.predictMatches(p.ids, a.token, a.prob) {
			return seg, fmt.Errorf("%w: predict %v returned (%d, %v), trunk.Infer disagrees", errIncorrect, p.ids, a.token, a.prob)
		}
	}
	if err := c.Err(); err != nil {
		return seg, fmt.Errorf("cluster: %w", err)
	}
	return seg, nil
}

// okLatencies returns the latencies (ms) of the answered requests whose due
// time lies in [from, to), sorted.
func (s segment) okLatencies(from, to time.Duration) []float64 {
	var out []float64
	for i, a := range s.answers {
		if a.err == nil && s.plan[i].due >= from && s.plan[i].due < to {
			out = append(out, float64(a.lat)/1e6)
		}
	}
	return sortedCopy(out)
}

func (s segment) failed() int {
	n := 0
	for _, a := range s.answers {
		if a.err != nil {
			n++
		}
	}
	return n
}

// meetsSLO reports whether the segment held the SLO. The segment is cut into sloWindows windows by due
// time; it holds the SLO when at least sloCompleted of all its requests
// were answered and the p99 of most windows, failures counting as misses,
// is within sloP99MS. One stall of the host then fails one window, not the
// rate, while a backlog that grows through the segment fails the later
// windows and so the rate.
func (s segment) meetsSLO() bool {
	n := len(s.answers)
	if n == 0 {
		return false
	}
	span := s.plan[n-1].due + 1
	held := 0
	for w := 0; w < sloWindows; w++ {
		from, to := span*time.Duration(w)/sloWindows, span*time.Duration(w+1)/sloWindows
		var lat []float64
		for i, a := range s.answers {
			if d := s.plan[i].due; d < from || d >= to {
				continue
			}
			if a.err != nil {
				lat = append(lat, math.Inf(1))
			} else {
				lat = append(lat, float64(a.lat)/1e6)
			}
		}
		if len(lat) > 0 && quantile(sortedCopy(lat), 0.99) <= sloP99MS {
			held++
		}
	}
	ok := n - s.failed()
	return 2*held > sloWindows && float64(ok) >= sloCompleted*float64(n)
}

// lateness returns the p50 and p99 (ms) of how late the generator
// dispatched the segment's requests.
func (s segment) lateness() (float64, float64) {
	late := make([]float64, len(s.answers))
	for i, a := range s.answers {
		late[i] = float64(a.late) / 1e6
	}
	late = sortedCopy(late)
	return quantile(late, 0.5), quantile(late, 0.99)
}

// servingTail is the percentile serving latency is reported at: p99, or the
// highest one the sample supports.
func servingTail(n int) float64 { return min(0.99, supportedTail(n)) }

// serveRef holds the model the served checkpoint was taken from; answers
// are checked against it.
type serveRef struct{ model *nn.Model }

func (r *serveRef) rowsMatch(ids []int64, rows [][]float32) bool {
	if len(rows) != len(ids) {
		return false
	}
	for i, id := range ids {
		want := r.model.Emb.Table.Row(int(id))
		if len(rows[i]) != len(want) {
			return false
		}
		for k, v := range want {
			if math.Float32bits(rows[i][k]) != math.Float32bits(v) {
				return false
			}
		}
	}
	return true
}

// predictMatches recomputes a prediction with the training model's own
// arithmetic: PoolLookup then Trunk.Infer, argmax and its probability.
func (r *serveRef) predictMatches(ids []int64, token int64, prob float32) bool {
	probs, err := r.model.Trunk.Infer(r.model.Emb.PoolLookup([][]int64{ids}))
	if err != nil {
		return false
	}
	row := probs.Row(0)
	best := 0
	for v := 1; v < len(row); v++ {
		if row[v] > row[best] {
			best = v
		}
	}
	return int64(best) == token && math.Float32bits(row[best]) == math.Float32bits(prob)
}

// bootServe is the serving set-up a user pays: checkpoint save and load,
// serve.New over TCP, and a closed-loop warm-up pass that fills the caches
// and promotes the Zipf head into the hot set.
func bootServe(model *nn.Model, seed int64, traced bool) (*serve.Cluster, error) {
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, modelCheckpoint(model)); err != nil {
		return nil, err
	}
	ck, err := checkpoint.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	c, err := serve.New(ck, serveConfig(traced))
	if err != nil {
		return nil, err
	}
	rep := serve.RunLoad(c, serve.LoadConfig{Clients: 8, Requests: 50, IDsPerRequest: idsPerReq, Seed: seed, Timeout: time.Second})
	if rep.Errors > 0 {
		c.Close()
		return nil, fmt.Errorf("warm-up: %s", rep)
	}
	return c, nil
}

// runServe is the serving workload's run.
func runServe(o options) (*outcome, error) {
	model := nn.NewModel(o.seed, serveVocab, serveDim, serveHidden)
	ref := &serveRef{model: model}
	if o.trace {
		return traceServe(o, model, ref)
	}
	var setups []float64
	var c *serve.Cluster
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		cl, err := bootServe(model, o.seed, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			cl.Close()
		} else {
			c = cl
		}
	}
	defer c.Close()

	// The low-rate measurement is cut into blocks interleaved with the SLO
	// search's probes, and each figure is the median over blocks, so a
	// contention episode of the shared host moves one block, not the run.
	blockDur := time.Duration(o.seconds / 2 / lowBlocks * 1e9)
	search := newSLOSearch(o.seed, time.Duration(max(1, o.seconds/16)*1e9))
	var p50s, tails []float64
	out := newOutcome()
	for b := 0; b < lowBlocks; b++ {
		seg, err := runSegment(c, schedule(o.seed+int64(b), lowRate, blockDur, serveVocab), ref)
		if err != nil {
			return nil, err
		}
		lat := seg.okLatencies(0, blockDur)
		p50s = append(p50s, quantile(lat, 0.5))
		tails = append(tails, quantile(lat, servingTail(len(lat))))
		out.attempted += int64(len(seg.plan))
		out.failed += int64(seg.failed())
		if b == 0 {
			search.start(seg)
		}
		for i := 0; i < probesPerBlock; i++ {
			if err := search.step(c, ref); err != nil {
				return nil, err
			}
		}
	}
	maxQPS, err := search.result()
	if err != nil {
		return nil, err
	}
	out.values["max_qps_slo"] = maxQPS
	out.values["p50_ms.low"] = median(p50s)
	out.values["p99_ms.low"] = median(tails)
	out.values["setup_s"] = median(setups)
	out.values["peak_rss_mb"] = peakRSSMB()
	return out, nil
}

// sloSearch finds the highest rate that holds the SLO. Near that rate a
// probe's verdict is random, so one binary search lands anywhere in the
// band where verdicts flip. The search therefore brackets the rate by
// binary search until the bracket is bracketWidth grid steps wide, then
// runs an up-down staircase from its lower end: up one step after a probe
// that holds the SLO, down one after one that does not. The result is the
// geometric mean of the rates the staircase probed, the rate that holds
// the SLO in about half of its probes, each rate as actually offered. Failed probes are the search's
// signal, not errors of the run.
type sloSearch struct {
	seed   int64
	dur    time.Duration
	lo, hi int       // bracket: lo held the SLO (or lies below the grid), hi did not (or lies above it)
	stair  []float64 // offered rates the staircase probed, as measured
	next   int       // the staircase's next index
	probes int
}

const bracketWidth = 4

func newSLOSearch(seed int64, probe time.Duration) *sloSearch {
	return &sloSearch{seed: seed, dur: probe, lo: -gridBelow - 1, hi: 0, next: math.MinInt}
}

func gridRate(k int) float64 { return lowRate * math.Pow(gridStep, float64(k)) }

// start seeds the bracket with the verdict of a segment at lowRate.
func (s *sloSearch) start(low segment) {
	if low.meetsSLO() {
		s.lo, s.hi = 0, gridAbove+1
	}
}

// step runs one probe: a bisection while the bracket is wide, a staircase
// step after.
func (s *sloSearch) step(c *serve.Cluster, ref *serveRef) error {
	k := (s.lo + s.hi) / 2
	bisect := s.hi-s.lo > bracketWidth
	if !bisect {
		if s.next == math.MinInt {
			s.next = max(s.lo, -gridBelow)
		}
		k = s.next
	}
	s.probes++
	seg, err := runSegment(c, schedule(s.seed+int64(1000*s.probes+k), gridRate(k), s.dur, serveVocab), ref)
	if err != nil {
		return err
	}
	pass := seg.meetsSLO()
	switch {
	case bisect && pass:
		s.lo = k
	case bisect:
		s.hi = k
	case pass:
		s.stair = append(s.stair, float64(len(seg.plan))/seg.dur.Seconds())
		s.next = min(k+1, gridAbove)
	default:
		s.stair = append(s.stair, float64(len(seg.plan))/seg.dur.Seconds())
		s.next = max(k-1, -gridBelow)
	}
	return nil
}

// result is the geometric mean of the staircase's rates.
func (s *sloSearch) result() (float64, error) {
	if len(s.stair) == 0 {
		return 0, fmt.Errorf("SLO search ended after %d probes without a staircase", s.probes)
	}
	var sum float64
	for _, r := range s.stair {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(s.stair))), nil
}

// traceServe is the serving workload's traced run: the serving layer rows,
// then the layer probes at the serving shapes.
func traceServe(o options, model *nn.Model, ref *serveRef) (*outcome, error) {
	out := newOutcome()
	tracers, proc, err := serveLayers(o, model, ref, out)
	if err != nil {
		return nil, err
	}
	procRows(out, proc)
	shape := probeShape{
		seed: o.seed, tcp: true, ranks: serveRanks,
		vocab: serveVocab, embDim: serveDim, hidden: serveHidden,
		trunkBatch: max(1, int(math.Round(out.values["serve.batch_size_mean"]*predictShare))),
		shardRows:  max(1, int(math.Round(out.values["serve.remote_rows_per_req"]*out.values["serve.batch_size_mean"]))),
		shardDim:   serveDim, uniqueRows: 32, msgBytes: serveDim * 4 * idsPerReq,
	}
	if err := probeLayers(shape, out); err != nil {
		return nil, err
	}
	if err := writeTrace("serve-zipf-tcp", o.seed, tracers); err != nil {
		return nil, err
	}
	out.notRun = []string{"comm.msgs_per_step", "comm.mb_per_step", "comm.recv_wait_ms_per_step",
		"collective.mb_per_step.", "compress.raw_over_wire", "compress.encode_ms_per_step",
		"compress.decode_ms_per_step", "strategies.", "data.", "proc.alloc_mb_per_step",
		"tracing.overhead.tokens_per_s", "train."}
	return out, nil
}

// serveLayers measures the serving layer rows: an untraced cluster at the
// low and the high rate, then a traced cluster at the low rate with a
// Reload of the same checkpoint halfway through. It adds its requests to
// out's attempted and failed counts and returns the traced cluster's
// recorders and what the runtime did over the traced segment.
func serveLayers(o options, model *nn.Model, ref *serveRef, out *outcome) ([]*trace.Recorder, procDelta, error) {
	segDur := time.Duration(o.seconds / 3 * 1e9)
	c, err := bootServe(model, o.seed, false)
	if err != nil {
		return nil, procDelta{}, err
	}
	var plainLow, high segment
	plainLow, err = runSegment(c, schedule(o.seed, lowRate, segDur, serveVocab), ref)
	if err == nil {
		high, err = runSegment(c, schedule(o.seed+1, highRate, segDur, serveVocab), ref)
	}
	c.Close()
	if err != nil {
		return nil, procDelta{}, err
	}
	ll, hl := plainLow.okLatencies(0, segDur), high.okLatencies(0, segDur)
	out.values["serve.p50_ms.low"] = quantile(ll, 0.5)
	out.values["serve.p99_ms.low"] = quantile(ll, servingTail(len(ll)))
	out.values["serve.p50_ms.high"] = quantile(hl, 0.5)
	out.values["serve.p99_ms.high"] = quantile(hl, servingTail(len(hl)))
	out.values["loadgen.late_ms_p50.low"], out.values["loadgen.late_ms_p99.low"] = plainLow.lateness()
	out.values["loadgen.late_ms_p50.high"], out.values["loadgen.late_ms_p99.high"] = high.lateness()

	c, err = bootServe(model, o.seed, true)
	if err != nil {
		return nil, procDelta{}, err
	}
	defer c.Close()
	for _, tr := range c.Tracers() {
		tr.Reset()
	}
	reloadCk := modelCheckpoint(model)
	before, p0 := c.Stats(), sampleProc()
	reloadMS := make(chan float64, 1)
	reloadErr := make(chan error, 1)
	go func() {
		time.Sleep(segDur / 2)
		t0 := time.Now()
		err := c.Reload(reloadCk)
		reloadMS <- float64(time.Since(t0)) / 1e6
		reloadErr <- err
	}()
	tracedLow, err := runSegment(c, schedule(o.seed, lowRate, segDur, serveVocab), ref)
	rms, rerr := <-reloadMS, <-reloadErr
	if err != nil {
		return nil, procDelta{}, err
	}
	if rerr != nil {
		return nil, procDelta{}, fmt.Errorf("reload under load: %w", rerr)
	}
	after, proc := c.Stats(), p0.to(sampleProc())
	out.values["serve.reload_ms"] = rms
	out.values["tracing.overhead.p50_ms_low"] = quantile(tracedLow.okLatencies(0, segDur), 0.5) - out.values["serve.p50_ms.low"]
	serveRows(out, before, after, c.Tracers())
	out.values["proc.alloc_kb_per_req"] = proc.allocBytes / 1024 / float64(after.Requests-before.Requests)

	var attempted, failed int
	for _, s := range []segment{plainLow, high, tracedLow} {
		attempted += len(s.plan)
		failed += s.failed()
	}
	out.values["serve.refused_frac"] = float64(failed) / float64(attempted)
	out.attempted += int64(attempted)
	out.failed += int64(failed)
	return c.Tracers(), proc, nil
}

// serveRows fills the serve rows from the counter deltas of the traced
// segment and the layer's own spans (queue wait, exchange, trunk forward).
func serveRows(out *outcome, before, after serve.Stats, tracers []*trace.Recorder) {
	batches := float64(after.Batches - before.Batches)
	reqs := float64(after.Requests - before.Requests)
	var qw []float64
	var xchg, fwd time.Duration
	for _, tr := range tracers {
		for _, sp := range tr.Spans() {
			switch sp.Name {
			case "serve/queue-wait":
				qw = append(qw, float64(sp.Dur)/1e6)
			case "serve/xchg":
				xchg += sp.Dur
			case "serve/fwd":
				fwd += sp.Dur
			}
		}
	}
	qw = sortedCopy(qw)
	out.values["serve.queue_wait_ms_p50"] = quantile(qw, 0.5)
	out.values["serve.queue_wait_ms_p99"] = quantile(qw, servingTail(len(qw)))
	out.values["serve.batch_size_mean"] = reqs / batches
	out.values["serve.exchanges_per_batch"] = float64(after.Exchanges-before.Exchanges) / batches
	out.values["serve.coalesced_per_batch"] = float64(after.Coalesced-before.Coalesced) / batches
	out.values["serve.cache_hit_rate"] = rate(after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses)
	out.values["serve.hot_hit_rate"] = rate(after.Hot.Hits-before.Hot.Hits, after.Hot.Misses-before.Hot.Misses)
	out.values["serve.remote_rows_per_req"] = float64(after.RemoteRows-before.RemoteRows) / reqs
	out.values["serve.mb_per_req"] = float64(payload(after.CommPerOp)-payload(before.CommPerOp)) / 1e6 / reqs
	out.values["serve.self_ms.xchg"] = float64(xchg) / 1e6 / batches
	out.values["serve.self_ms.fwd"] = float64(fwd) / 1e6 / batches
}

func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func payload(per map[string]metrics.OpStats) int64 {
	var b int64
	for _, st := range per {
		b += st.PayloadBytes
	}
	return b
}
