package main

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/compress"
	"embrace/internal/data"
	"embrace/internal/metrics"
	"embrace/internal/nn"
	"embrace/internal/strategies"
	"embrace/internal/trace"
	"embrace/internal/trainer"
)

// trainSpec is one training workload's shape.
type trainSpec struct {
	name       string
	tcp, codec bool
	vocab      int
	embDim     int
	hidden     int
	sentences  int // per rank per step
	window     int
	traceSteps int // fixed length of each traced-run session; >= 120 leaves 100 step gaps for p90
	// serveRows makes the traced run measure the serving layer rows too:
	// serving reads through the TCP transport this workload writes through.
	serveRows bool
}

// trainDense: the vocab-wide trunk and dense Adam dominate the step and the
// sparse exchange is a few percent, so trunk, optimizer and AllReduce
// changes show here and exchange, codec and TCP changes do not.
var trainDense = trainSpec{
	name: "train-dense", vocab: 8192, embDim: 64, hidden: 32,
	sentences: 8, window: 16, traceSteps: 120,
}

// trainSparseTCP: a wide embedding, a thin trunk and long windows put about
// half the CPU in the AlltoAll, the DeltaRaw codec and gob framing over
// loopback TCP, so exchange, transport and codec changes show here.
var trainSparseTCP = trainSpec{
	name: "train-sparse-tcp", tcp: true, codec: true, vocab: 4096, embDim: 256, hidden: 8,
	sentences: 32, window: 48, traceSteps: 120, serveRows: true,
}

const (
	trainRanks    = 4
	gateSteps     = 4  // prefix checked bit-for-bit against trainer.Run
	chunkSteps    = 20 // steps the ranks run between checks of the clock
	minStepGaps   = 100
	setupRepeats  = 5
	baselineSteps = 10 // steps of the world-1 and AllGather baselines
)

// job is the trainer.Job the workload runs: EmbRace, Sched2D, Adam, on a
// Zipf(1.3, 2) corpus whose sentences just exceed the window.
func (s trainSpec) job(seed int64, workers, steps int) trainer.Job {
	model := strategies.Config{
		Seed: seed, Vocab: s.vocab, EmbDim: s.embDim, Hidden: s.hidden,
		Optimizer: strategies.OptAdam, LR: 0.01, Sched: strategies.Sched2D,
	}
	if s.codec {
		model.Codec = compress.DeltaRaw{}
	}
	return trainer.Job{
		Strategy: strategies.EmbRace, Workers: workers, Steps: steps, Window: s.window, Model: model,
		Data: data.Config{
			VocabSize: s.vocab, BatchSentences: s.sentences,
			MinSeqLen: s.window + 1, MaxSeqLen: s.window + 3, ZipfS: 1.3, ZipfV: 2,
		},
		DataSeed: seed, OverTCP: s.tcp,
	}
}

// Benchmark-side span names, recorded on each rank's trace.Recorder around
// the calls the loop makes. "step" is the name trainer.runRankLoop uses.
const (
	spanStep   = "step"
	spanData   = "data/next"
	spanGather = "stats/gather"
)

// fabric is the world a session runs on: the mailbox or the TCP mesh.
type fabric interface {
	Rank(i int) comm.Transport
	Close()
}

// newFabric boots an n-rank world over loopback TCP or the mailbox.
func newFabric(tcp bool, n int) (fabric, error) {
	if tcp {
		return comm.NewTCPWorld(n)
	}
	return comm.NewWorld(n)
}

// command tells every rank to run steps [first, first+n), or to finish
// (n == 0): harvest the last delayed exchange and gather the table, as
// trainer.Run does at the end of a job.
type command struct{ first, n int }

// rankChunk is one rank's report for one command.
type rankChunk struct {
	rank    int
	err     error
	losses  []float64     // rank 0: mean loss across ranks per step
	tokens  []int         // this rank's non-pad tokens per step
	gaps    []float64     // rank 0: ms between successive Step returns
	elapsed time.Duration // rank 0: wall time of the command
}

// session is a booted training world whose ranks run the trainer's step
// loop chunk by chunk under the benchmark's control.
type session struct {
	job     trainer.Job
	world   fabric
	cmds    []chan command
	results chan rankChunk
	recs    []*metrics.OpRecorder
	tracers []*trace.Recorder
	wg      sync.WaitGroup
	next    int
}

// startSession boots the world and every rank's worker, generator and
// loader. With traced set, each rank gets the recorder wiring of
// trainer.runRankLoop's Trace mode.
func startSession(job trainer.Job, traced bool) (*session, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	shared, err := strategies.NewShared(job.Strategy, job.Model, job.Workers)
	if err != nil {
		return nil, err
	}
	world, err := newFabric(job.OverTCP, job.Workers)
	if err != nil {
		return nil, err
	}
	n := job.Workers
	s := &session{
		job: job, world: world,
		cmds:    make([]chan command, n),
		results: make(chan rankChunk, n),
		recs:    make([]*metrics.OpRecorder, n),
		tracers: make([]*trace.Recorder, n),
	}
	ready := make(chan error, n)
	for r := 0; r < n; r++ {
		s.cmds[r] = make(chan command, 1)
		s.recs[r] = metrics.NewOpRecorder()
		if traced {
			tr := trace.NewRecorder(r)
			tr.RouteOp(strategies.OpEmbDelayed, trace.TrackBackground)
			s.tracers[r] = tr
		}
		s.wg.Add(1)
		go s.rankMain(r, shared, ready)
	}
	var first error
	for r := 0; r < n; r++ {
		if err := <-ready; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		s.shutdown()
		return nil, first
	}
	return s, nil
}

// rankMain is one rank's life: build what trainer.runRankLoop builds, then
// obey commands until the command channel closes. After an error the rank
// answers every further command with it.
func (s *session) rankMain(r int, shared *strategies.Shared, ready chan<- error) {
	defer s.wg.Done()
	t := s.world.Rank(r)
	obs := collective.Observer(s.recs[r])
	tr := s.tracers[r]
	if tr != nil {
		obs = collective.MultiObserver(s.recs[r], tr)
	}
	cm := collective.NewCommunicator(t,
		collective.WithChunkBytes(trainer.DefaultChunkBytes),
		collective.WithObserver(obs))
	w, err := strategies.NewWorker(s.job.Strategy, cm, s.job.Model, shared, strategies.WithRecorder(tr))
	var loader *data.Loader
	if err == nil {
		var gen *data.Generator
		gen, err = data.NewGenerator(s.job.Data, s.job.DataSeed+int64(r))
		if err == nil {
			loader = data.NewLoader(gen)
		}
	}
	ready <- err
	for c := range s.cmds[r] {
		out := rankChunk{rank: r, err: err}
		if err == nil {
			if c.n == 0 {
				_, out.err = w.FullEmbedding()
			} else {
				out = s.runChunk(r, cm, w, loader, c)
			}
			if out.err != nil {
				err = out.err
				if l, ok := t.(comm.Leaver); ok {
					l.Leave(err)
				}
			}
		}
		s.results <- out
	}
}

// runChunk runs steps [c.first, c.first+c.n) exactly as trainer.runRankLoop
// does, timing each step at rank 0.
func (s *session) runChunk(r int, cm *collective.Communicator, w strategies.Worker, loader *data.Loader, c command) rankChunk {
	tr := s.tracers[r]
	out := rankChunk{rank: r, tokens: make([]int, 0, c.n)}
	start := time.Now()
	prev := start
	for step := c.first; step < c.first+c.n; step++ {
		sp := tr.Begin(trace.TrackCompute, spanData, step)
		batch := loader.Next()
		next := loader.Peek()
		windows, targets := trainer.WindowsTargets(batch, s.job.Window)
		sp.End()
		sp = tr.Begin(trace.TrackCompute, spanStep, step)
		stats, err := w.Step(step, windows, targets, next.Tokens())
		sp.End()
		ret := time.Now()
		if err != nil {
			out.err = fmt.Errorf("rank %d step %d: %w", r, step, err)
			return out
		}
		if r == 0 && step > c.first {
			out.gaps = append(out.gaps, float64(ret.Sub(prev))/1e6)
		}
		prev = ret
		sp = tr.Begin(trace.TrackCompute, spanGather, step)
		all, err := collective.GatherVia(cm, strategies.OpStats, step, 0, stats)
		sp.End()
		if err != nil {
			out.err = fmt.Errorf("rank %d step %d stats gather: %w", r, step, err)
			return out
		}
		if r == 0 {
			var sum float64
			for _, st := range all {
				sum += st.Loss
			}
			out.losses = append(out.losses, sum/float64(len(all)))
		}
		out.tokens = append(out.tokens, batch.NonPad)
	}
	out.elapsed = time.Since(start)
	return out
}

// chunk is the merged report of one command across ranks.
type chunk struct {
	losses  []float64
	tokens  []int // summed over ranks, per step
	gaps    []float64
	elapsed time.Duration
}

// do sends c to every rank and merges the replies. On a rank error the
// world is closed so no peer stays blocked, and the error is returned.
func (s *session) do(c command) (chunk, error) {
	for _, ch := range s.cmds {
		ch <- c
	}
	var merged chunk
	if c.n > 0 {
		merged.tokens = make([]int, c.n)
	}
	var first error
	for range s.cmds {
		rc := <-s.results
		if rc.err != nil {
			if first == nil {
				first = rc.err
				s.world.Close()
			}
			continue
		}
		for i, t := range rc.tokens {
			merged.tokens[i] += t
		}
		if rc.rank == 0 {
			merged.losses, merged.gaps, merged.elapsed = rc.losses, rc.gaps, rc.elapsed
		}
	}
	return merged, first
}

// steps runs n steps and advances the session's step counter.
func (s *session) steps(n int) (chunk, error) {
	c, err := s.do(command{first: s.next, n: n})
	s.next += n
	return c, err
}

// finish harvests the last delayed exchange on every rank and stops the
// session.
func (s *session) finish() error {
	_, err := s.do(command{})
	s.shutdown()
	return err
}

func (s *session) shutdown() {
	for _, ch := range s.cmds {
		close(ch)
	}
	s.wg.Wait()
	s.world.Close()
}

// opCounts is the deterministic part of one op's traffic, summed over ranks.
type opCounts struct{ msgs, bytes, raw, wire int64 }

// perOp sums the session's per-op counters over ranks.
func (s *session) perOp() map[string]metrics.OpStats {
	out := make(map[string]metrics.OpStats)
	for _, rec := range s.recs {
		for op, st := range rec.PerOp() {
			out[op] = out[op].Add(st)
		}
	}
	return out
}

func countsOf(per map[string]metrics.OpStats) map[string]opCounts {
	out := make(map[string]opCounts, len(per))
	for op, st := range per {
		out[op] = opCounts{st.Messages, st.PayloadBytes, st.RawBytes, st.WireBytes}
	}
	return out
}

// gate runs trainer.Run on the first gateSteps steps of the job and returns
// its per-step losses and token total: the path users run, which the
// benchmark loop must reproduce bit for bit.
func gate(job trainer.Job) ([]float64, int, error) {
	job.Steps = gateSteps
	res, err := trainer.Run(job)
	if err != nil {
		return nil, 0, fmt.Errorf("trainer.Run reference: %w", err)
	}
	return res.Losses, res.TokensTrained, nil
}

// checkPrefix compares the loop's first losses and tokens with the
// trainer.Run reference.
func checkPrefix(refLoss []float64, refTokens int, losses []float64, tokens []int) error {
	if len(losses) < len(refLoss) || len(tokens) < len(refLoss) {
		return fmt.Errorf("%w: loop ran %d steps, reference %d", errIncorrect, len(losses), len(refLoss))
	}
	sum := 0
	for i, want := range refLoss {
		if math.Float64bits(losses[i]) != math.Float64bits(want) {
			return fmt.Errorf("%w: step %d loss %v != trainer.Run %v", errIncorrect, i, losses[i], want)
		}
		sum += tokens[i]
	}
	if sum != refTokens {
		return fmt.Errorf("%w: first %d steps trained %d tokens, trainer.Run %d", errIncorrect, len(refLoss), sum, refTokens)
	}
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("%w: step %d loss %v", errIncorrect, i, l)
		}
	}
	return nil
}

// trainLog accumulates the loop's per-step record across chunks.
type trainLog struct {
	losses []float64
	tokens []int
	gaps   []float64
	steps  int64
	// timedTokens and timed sum the non-pad tokens and the rank-0 wall
	// time of the timed chunks.
	timedTokens int
	timed       time.Duration
}

func (l *trainLog) add(c chunk, timed bool) {
	l.losses = append(l.losses, c.losses...)
	l.tokens = append(l.tokens, c.tokens...)
	l.steps += int64(len(c.tokens))
	if !timed {
		return
	}
	l.gaps = append(l.gaps, c.gaps...)
	for _, t := range c.tokens {
		l.timedTokens += t
	}
	l.timed += c.elapsed
}

// tokensPerSecond is the timed chunks' non-pad tokens over their wall time.
func (l *trainLog) tokensPerSecond() float64 { return float64(l.timedTokens) / l.timed.Seconds() }

// bootWarm boots a session and runs its untimed warm-up step: the set-up a
// user pays before the first timed step.
func bootWarm(job trainer.Job, traced bool, log *trainLog) (*session, error) {
	s, err := startSession(job, traced)
	if err != nil {
		return nil, err
	}
	c, err := s.steps(1)
	if err != nil {
		s.shutdown()
		return nil, err
	}
	log.add(c, false)
	return s, nil
}

// runTrain is a training workload's run: end-to-end metrics untraced, the
// per-layer breakdown traced.
func runTrain(spec trainSpec, o options) (*outcome, error) {
	job := spec.job(o.seed, trainRanks, 1)
	refLoss, refTokens, err := gate(job)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceTrain(spec, job, o, refLoss, refTokens)
	}

	// Set up several times and keep the median: one boot is too noisy a
	// sample for a bound. The last session is the one measured.
	var setups []float64
	var s *session
	var log trainLog
	for i := 0; i < setupRepeats; i++ {
		log = trainLog{steps: log.steps}
		t0 := time.Now()
		s, err = bootWarm(job, false, &log)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := s.finish(); err != nil {
				return nil, err
			}
		}
	}
	start := time.Now()
	for len(log.gaps) < minStepGaps || time.Since(start).Seconds() < o.seconds {
		c, err := s.steps(chunkSteps)
		if err != nil {
			s.shutdown()
			return nil, err
		}
		log.add(c, true)
	}
	if err := s.finish(); err != nil {
		return nil, err
	}
	if err := checkPrefix(refLoss, refTokens, log.losses, log.tokens); err != nil {
		return nil, err
	}
	gaps := sortedCopy(log.gaps)
	out := newOutcome()
	out.values["tokens_per_s"] = log.tokensPerSecond()
	out.values["step_ms_p50"] = quantile(gaps, 0.5)
	out.values["setup_s"] = median(setups)
	out.values["peak_rss_mb"] = peakRSSMB()
	out.attempted = log.steps + gateSteps
	return out, nil
}

// runFixed boots a session, runs the warm-up plus steps timed steps in
// chunks, and finishes it.
func runFixed(job trainer.Job, traced bool, steps int) (*session, *trainLog, error) {
	log := &trainLog{}
	s, err := bootWarm(job, traced, log)
	if err != nil {
		return nil, nil, err
	}
	for done := 0; done < steps; {
		n := min(chunkSteps, steps-done)
		c, err := s.steps(n)
		if err != nil {
			s.shutdown()
			return nil, nil, err
		}
		log.add(c, true)
		done += n
	}
	return s, log, s.finish()
}

// traceTrain is the traced run: an untraced and a traced session of the
// same fixed length (whose deterministic counts must agree exactly), the
// per-layer numbers from the traced one, then the layer probes and the
// baselines.
func traceTrain(spec trainSpec, job trainer.Job, o options, refLoss []float64, refTokens int) (*outcome, error) {
	plain, plainLog, err := runFixed(job, false, spec.traceSteps)
	if err != nil {
		return nil, err
	}
	if err := checkPrefix(refLoss, refTokens, plainLog.losses, plainLog.tokens); err != nil {
		return nil, err
	}
	p0 := sampleProc()
	traced, tracedLog, err := runFixed(job, true, spec.traceSteps)
	if err != nil {
		return nil, err
	}
	proc := p0.to(sampleProc())
	if err := checkPrefix(refLoss, refTokens, tracedLog.losses, tracedLog.tokens); err != nil {
		return nil, err
	}
	per := traced.perOp()
	if a, b := countsOf(plain.perOp()), countsOf(per); !maps.Equal(a, b) {
		return nil, fmt.Errorf("%w: traffic counts differ between two runs of the same job: %v vs %v", errIncorrect, a, b)
	}
	if err := writeTrace(spec.name, o.seed, traced.tracers); err != nil {
		return nil, err
	}

	out := newOutcome()
	out.attempted = gateSteps + plainLog.steps + tracedLog.steps
	steps := float64(tracedLog.steps) // warm-up included: counts cover the whole session
	ranks := float64(job.Workers)
	commCounts(out, per, steps*ranks)
	phaseTimes(out, traced.tracers, spec.traceSteps)
	out.values["proc.alloc_mb_per_step"] = proc.allocBytes / 1e6 / steps
	procRows(out, proc)
	out.values["tracing.overhead.tokens_per_s"] = plainLog.tokensPerSecond() - tracedLog.tokensPerSecond()
	out.values["train.step_ms_p90"] = quantile(sortedCopy(plainLog.gaps), 0.9)

	if err := trainBaselines(spec, o.seed, out); err != nil {
		return nil, err
	}
	out.notRun = []string{"serve.", "loadgen.", "proc.alloc_kb_per_req", "tracing.overhead.p50_ms_low"}
	if spec.serveRows {
		model := nn.NewModel(o.seed, serveVocab, serveDim, serveHidden)
		if _, _, err := serveLayers(o, model, &serveRef{model: model}, out); err != nil {
			return nil, fmt.Errorf("serving rows: %w", err)
		}
		out.notRun = nil
	}
	shape := trainProbeShape(spec, o.seed, messageSize(per))
	if err := probeLayers(shape, out); err != nil {
		return nil, err
	}
	return out, nil
}

// collectiveOps maps the collective.mb_per_step rows to the op names whose
// bytes they sum; "dense" covers every dense/<param> AllReduce.
var collectiveOps = map[string]string{
	"emb_data":       strategies.OpEmbData,
	"emb_grad":       strategies.OpEmbGrad,
	"emb_delayed":    strategies.OpEmbDelayed,
	"emb_tokens":     strategies.OpTokens,
	"emb_next_batch": strategies.OpNextBatch,
	"dense":          strategies.OpDense(""),
	"stats":          strategies.OpStats,
}

// commCounts fills the comm, collective and compress rows from the per-op
// counters; div is steps times ranks, so rows are per rank per step. The
// final table gather runs once per job, not per step, and is left out.
func commCounts(out *outcome, per map[string]metrics.OpStats, div float64) {
	var msgs, bytes, raw, wire int64
	var recv, enc, dec float64
	for op, st := range per {
		if op == strategies.OpGatherEmb {
			continue
		}
		msgs += st.Messages
		bytes += st.PayloadBytes
		recv += st.RecvSeconds
		raw += st.RawBytes
		wire += st.WireBytes
		enc += st.EncodeSeconds
		dec += st.DecodeSeconds
	}
	out.values["comm.msgs_per_step"] = float64(msgs) / div
	out.values["comm.mb_per_step"] = float64(bytes) / 1e6 / div
	out.values["comm.recv_wait_ms_per_step"] = recv * 1e3 / div
	for row, op := range collectiveOps {
		var b int64
		for name, st := range per {
			if name == op || (strings.HasSuffix(op, "/") && strings.HasPrefix(name, op)) {
				b += st.PayloadBytes
			}
		}
		out.values["collective.mb_per_step."+row] = float64(b) / 1e6 / div
	}
	out.values["compress.raw_over_wire"] = metrics.OpStats{RawBytes: raw, WireBytes: wire}.CompressionRatio()
	out.values["compress.encode_ms_per_step"] = enc * 1e3 / div
	out.values["compress.decode_ms_per_step"] = dec * 1e3 / div
}

// messageSize is the count-weighted median message size of a session, the
// size the transport probe streams at.
func messageSize(per map[string]metrics.OpStats) int {
	type opSize struct {
		size float64
		n    int64
	}
	var sizes []opSize
	var n int64
	for _, st := range per {
		if st.Messages > 0 {
			sizes = append(sizes, opSize{float64(st.PayloadBytes) / float64(st.Messages), st.Messages})
			n += st.Messages
		}
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i].size < sizes[j].size })
	var seen int64
	for _, s := range sizes {
		seen += s.n
		if 2*seen >= n {
			return max(4, int(s.size))
		}
	}
	return 4
}

// phaseRows maps the worker's span names to strategies.self_ms rows; the
// per-parameter dense spans are matched by prefix in phaseRow.
var phaseRows = map[string]string{
	strategies.SpanFP:             "fp",
	strategies.SpanBP:             "bp",
	strategies.SpanLookup:         "emb_lookup",
	strategies.SpanEmbExchange:    "xchg_emb",
	strategies.SpanPriorExchange:  "xchg_prior",
	strategies.SpanEmbUpdate:      "opt_emb",
	strategies.SpanPriorUpdate:    "opt_prior",
	strategies.SpanVSplit:         "vsplit",
	strategies.SpanHarvestDelayed: "harvest_delayed",
}

// phaseRow resolves a compute-track span name to its self_ms row.
func phaseRow(name string) (string, bool) {
	if strings.HasPrefix(name, strategies.SpanDense("")) {
		return "xchg_dense", true
	}
	row, ok := phaseRows[name]
	return row, ok
}

func ivOf(sp trace.Span) interval { return interval{sp.Start, sp.End()} }

// phaseTimes computes the strategies and data rows from the traced
// session's spans, per rank per timed step. A phase's self time is its span
// minus the compute spans nested in it; the step's remaining self time is
// split into the token and next-batch gathers (their network spans) and
// step_other.
func phaseTimes(out *outcome, tracers []*trace.Recorder, timedSteps int) {
	self := make(map[string]time.Duration)
	var stepTotal time.Duration
	var bg, fg []interval
	for _, tr := range tracers {
		spans := tr.Spans()
		var compute []trace.Span
		var gathers []interval
		for _, sp := range spans {
			switch {
			case sp.Track == trace.TrackCompute && sp.Step >= 1:
				compute = append(compute, sp)
			case sp.Track == trace.TrackBackground && sp.Name == strategies.SpanDelayedExchange && sp.Step >= 1:
				bg = append(bg, ivOf(sp))
			case sp.Track == trace.TrackNetwork && (sp.Name == strategies.OpTokens || sp.Name == strategies.OpNextBatch):
				gathers = append(gathers, ivOf(sp))
			}
		}
		gatherSet := union(gathers)
		for _, sp := range compute {
			iv := ivOf(sp)
			var kids []interval
			for _, k := range compute {
				if k != sp && k.Start >= sp.Start && k.End() <= sp.End() {
					kids = append(kids, ivOf(k))
				}
			}
			switch sp.Name {
			case spanStep:
				stepTotal += sp.Dur
				rest := subtract([]interval{iv}, union(kids))
				g := total(intersect(rest, gatherSet))
				self["xchg_gather"] += g
				self["step_other"] += total(rest) - g
			case spanData:
				self["data"] += selfTime(iv, kids)
			case spanGather:
				self["stats_gather"] += selfTime(iv, kids)
			default:
				row, ok := phaseRow(sp.Name)
				if !ok {
					continue
				}
				self[row] += selfTime(iv, kids)
				if row != "harvest_delayed" {
					fg = append(fg, iv)
				}
			}
		}
	}
	div := float64(len(tracers) * timedSteps)
	for _, row := range []string{"fp", "bp", "emb_lookup", "xchg_emb", "xchg_prior", "xchg_dense", "xchg_gather",
		"opt_emb", "opt_prior", "vsplit", "harvest_delayed", "stats_gather", "step_other"} {
		out.values["strategies.self_ms."+row] = float64(self[row]) / 1e6 / div
	}
	out.values["data.next_ms_per_step"] = float64(self["data"]) / 1e6 / div
	if stepTotal > 0 {
		out.values["strategies.phase_coverage"] = 1 - float64(self["step_other"])/float64(stepTotal)
	}
	out.values["strategies.delayed_overlap_frac"] = overlapFrac(bg, fg)
}

// trainBaselines measures the two paper anchors at the workload's shapes:
// the single-rank step time, and the wire bytes HorovodAllGather moves per
// step relative to EmbRace on the same batches.
func trainBaselines(spec trainSpec, seed int64, out *outcome) error {
	one := spec.job(seed, 1, 1)
	one.OverTCP = false
	_, log, err := runFixed(one, false, baselineSteps*3)
	if err != nil {
		return fmt.Errorf("world-1 baseline: %w", err)
	}
	out.values["strategies.world1_step_ms"] = median(log.gaps)

	wire := func(name strategies.Name) (float64, error) {
		job := spec.job(seed, trainRanks, 1)
		job.Strategy, job.OverTCP = name, false
		s, _, err := runFixed(job, false, baselineSteps)
		if err != nil {
			return 0, fmt.Errorf("%s baseline: %w", name, err)
		}
		var b int64
		for op, st := range s.perOp() {
			if op != strategies.OpStats && op != strategies.OpGatherEmb {
				b += st.PayloadBytes
			}
		}
		return float64(b), nil
	}
	ag, err := wire(strategies.HorovodAllGather)
	if err != nil {
		return err
	}
	er, err := wire(strategies.EmbRace)
	if err != nil {
		return err
	}
	out.values["strategies.wire_ratio_vs_allgather"] = ag / er
	return nil
}
