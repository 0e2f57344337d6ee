package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"rff/internal/bench"
	"rff/internal/campaign"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/sched"
)

// campaignProgram is one program of the campaign workload with its
// schedule budget. Every budget runs in full: the campaign does not
// stop at the first bug.
type campaignProgram struct {
	name   string
	budget int
	buggy  bool
}

// campaignPrograms are run one after another in every round. The three
// buggy programs' budgets are large enough that RFF finds each bug at
// any seed; Chan/prodcons has no bug and adds channel operations.
func campaignPrograms(small bool) []campaignProgram {
	if small {
		return []campaignProgram{
			{"CS/reorder_10", 60, true},
			{"CS/twostage_20", 60, true},
			{"SafeStack", 40, false},
			{"Chan/prodcons", 40, false},
		}
	}
	return []campaignProgram{
		{"CS/reorder_10", 1500, true},
		{"CS/twostage_20", 1500, true},
		{"SafeStack", 8000, true},
		{"Chan/prodcons", 1500, false},
	}
}

// replaySample bounds how many failure records per program the output
// check replays.
const replaySample = 4

// campaignInput is one program's resolved input.
type campaignInput struct {
	campaignProgram
	body exec.Program
	opts core.Options
}

func campaignInputs(cfg config) []campaignInput {
	var in []campaignInput
	for _, p := range campaignPrograms(cfg.small) {
		bp := bench.MustGet(p.name)
		in = append(in, campaignInput{
			campaignProgram: p,
			body:            bp.Body,
			opts: core.Options{
				Budget: p.budget,
				Seed:   campaign.TrialSeed(cfg.seed, "perfbench/campaign", p.name, 0),
			},
		})
	}
	return in
}

// runCampaign measures sequential full-budget RFF campaigns, timing
// every execution by calling Fuzzer.RunN(ctx, 1).
func runCampaign(cfg config) *result {
	res := newResult()
	inputs, setup := timeSetup(func() []campaignInput {
		in := campaignInputs(cfg)
		for _, c := range in {
			core.NewFuzzer(c.name, c.body, c.opts)
		}
		return in
	}, nil)
	res.set("setup_s", "s", setup)

	measureFor := cfg.seconds
	if cfg.trace {
		measureFor /= 2
	}
	deadline := time.Now().Add(time.Duration(measureFor * float64(time.Second)))
	ctx := context.Background()
	mem := startMem()
	var (
		// lat[r][i] is the latency of execution i of round r.
		lat       [][]float64
		walls     []float64
		rates     []float64
		execs     int64
		reference []*core.Report
	)
	for round := 0; round < campaignMinRounds || time.Now().Before(deadline); round++ {
		t0 := time.Now()
		var reps []*core.Report
		var n int64
		var rl []float64
		for _, c := range inputs {
			f := core.NewFuzzer(c.name, c.body, c.opts)
			for !f.Done() {
				s := time.Now()
				k := f.RunN(ctx, 1)
				rl = append(rl, float64(time.Since(s).Nanoseconds())/1e6)
				n += int64(k)
			}
			reps = append(reps, f.Finish())
		}
		wall := time.Since(t0).Seconds()
		lat = append(lat, rl)
		walls = append(walls, wall)
		rates = append(rates, float64(n)/wall)
		execs += n
		res.attempted += n
		if reference == nil {
			reference = reps
			res.failed += checkCampaign(res, inputs, reps)
		} else {
			for i := range reps {
				if err := compareReports(reference[i], reps[i]); err != nil {
					res.failed += int64(reps[i].Executions)
					res.fail("round %d, %s: report differs from round 0: %v", round, inputs[i].name, err)
				}
			}
		}
	}
	setMemory(res, mem, execs)
	// Every round repeats the same executions (the reports are checked
	// equal), so an execution's latencies across rounds time one piece of
	// work. A busy host preempts a different few executions in each
	// round: pooled over rounds, p99 read 1.7 and 4.1 ms in two runs of
	// one seed. The median over rounds of each execution's latency is
	// slow only where the execution itself is. The tail is capped at
	// p95: p99 is set by the hundred or so longest executions a seed's
	// campaigns happen to make, and across ten seeds its middle half
	// spread 0.20 of the median, against 0.08 for p95.
	l := summarizeUpTo(perExecutionMedians(lat), 95)
	res.set("wall_s", "s", median(walls))
	res.set("execs_per_s", "1/s", median(rates))
	res.set("op_p50_ms", "ms", l.p50)
	res.set("op_tail_ms", "ms", l.tail)
	res.notef("operation = one execution, timed as the median of its latencies over the %d rounds; %s", len(walls), l.note("op_tail_ms"))
	bugs := 0
	for _, r := range reference {
		if r.FoundBug() {
			bugs++
		}
	}
	res.set("bugs_found", "count", float64(bugs))
	pairs := 0
	for _, r := range reference {
		pairs += r.UniquePairs
	}
	res.notef("bugs_found = programs whose bug was found, of %d; rf_pairs = %d unique rf-pairs at the end of the budgets", len(inputs), pairs)

	if cfg.trace {
		untracedNS := ratio(sum(walls)*1e9, float64(execs))
		traceCampaign(cfg, res, inputs, reference, untracedNS)
	}
	return res
}

// campaignMinRounds rounds always run, so that each execution has at
// least three latencies to take the median of.
const campaignMinRounds = 3

// perExecutionMedians returns, for each execution index, the median of
// its latencies over the rounds. Rounds shorter than the first (whose
// reports then fail the equality check) contribute only the indexes
// they have.
func perExecutionMedians(lat [][]float64) []float64 {
	if len(lat) == 0 {
		return nil
	}
	out := make([]float64, len(lat[0]))
	col := make([]float64, 0, len(lat))
	for i := range out {
		col = col[:0]
		for _, rl := range lat {
			if i < len(rl) {
				col = append(col, rl[i])
			}
		}
		out[i] = median(col)
	}
	return out
}

// checkCampaign runs the output checks on one round's reports and
// returns how many executions failed them.
func checkCampaign(res *result, inputs []campaignInput, reps []*core.Report) int64 {
	var failed int64
	for i, c := range inputs {
		r := reps[i]
		if r.Executions != c.budget {
			res.fail("%s: executed %d schedules, budget %d", c.name, r.Executions, c.budget)
			failed += int64(max(r.Executions, 1))
			continue
		}
		if c.buggy && !r.FoundBug() {
			res.fail("%s: no bug found in %d schedules", c.name, c.budget)
			failed++
		}
		for _, err := range replayFailures(c.name, c.body, sampleFailures(r.Failures, replaySample)) {
			res.fail("%s: %v", c.name, err)
			failed++
		}
	}
	return failed
}

// sampleFailures picks up to n records spread evenly over recs.
func sampleFailures(recs []core.FailureRecord, n int) []core.FailureRecord {
	if len(recs) <= n {
		return recs
	}
	out := make([]core.FailureRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, recs[i*(len(recs)-1)/(n-1)])
	}
	return out
}

// replayFailures replays each record's decisions through sched.Replay
// and reports every one that does not end in the same failure kind at
// the same location.
func replayFailures(name string, body exec.Program, recs []core.FailureRecord) []error {
	var errs []error
	for _, fr := range recs {
		got := exec.Run(name, body, exec.Config{Scheduler: sched.NewReplay(fr.Decisions), Seed: fr.Seed})
		if got.Failure == nil {
			errs = append(errs, fmt.Errorf("execution %d: replay ended without a failure, want %s at %s", fr.Execution, fr.Failure.Kind, fr.Failure.Loc))
			continue
		}
		if got.Failure.Kind != fr.Failure.Kind || got.Failure.Loc != fr.Failure.Loc {
			errs = append(errs, fmt.Errorf("execution %d: replay ended in %s at %s, want %s at %s",
				fr.Execution, got.Failure.Kind, got.Failure.Loc, fr.Failure.Kind, fr.Failure.Loc))
		}
	}
	return errs
}

// compareReports checks the fields a rebuilt or repeated campaign must
// reproduce exactly.
func compareReports(want, got *core.Report) error {
	switch {
	case got.Executions != want.Executions:
		return fmt.Errorf("executions %d, want %d", got.Executions, want.Executions)
	case got.FirstBug != want.FirstBug:
		return fmt.Errorf("first bug at %d, want %d", got.FirstBug, want.FirstBug)
	case got.UniquePairs != want.UniquePairs:
		return fmt.Errorf("unique pairs %d, want %d", got.UniquePairs, want.UniquePairs)
	case got.UniqueSigs != want.UniqueSigs:
		return fmt.Errorf("unique signatures %d, want %d", got.UniqueSigs, want.UniqueSigs)
	case got.CorpusSize != want.CorpusSize:
		return fmt.Errorf("corpus size %d, want %d", got.CorpusSize, want.CorpusSize)
	case !reflect.DeepEqual(got.SigFrequencies, want.SigFrequencies):
		return fmt.Errorf("signature frequencies differ")
	}
	return nil
}

// timedProactive times every call the engine makes into the proactive
// scheduler. The engine calls it from one goroutine at a time, handing
// off between them, so plain fields need no locking.
type timedProactive struct {
	*core.Proactive
	picks, pickNS         int64
	executed, executedNS  int64
	lifecycle, lifecycleN int64
}

func (s *timedProactive) Begin(seed int64) {
	t0 := time.Now()
	s.Proactive.Begin(seed)
	s.lifecycle += time.Since(t0).Nanoseconds()
	s.lifecycleN++
}

func (s *timedProactive) Pick(v *exec.View) int {
	t0 := time.Now()
	i := s.Proactive.Pick(v)
	s.pickNS += time.Since(t0).Nanoseconds()
	s.picks++
	return i
}

func (s *timedProactive) Executed(ev exec.Event) {
	t0 := time.Now()
	s.Proactive.Executed(ev)
	s.executedNS += time.Since(t0).Nanoseconds()
	s.executed++
}

func (s *timedProactive) End(t *exec.Trace) {
	t0 := time.Now()
	s.Proactive.End(t)
	s.lifecycle += time.Since(t0).Nanoseconds()
	s.lifecycleN++
}

// drain folds the counts since the last drain into the open span.
func (s *timedProactive) drain(t *tracer) {
	t.child("core.proactive.pick", s.picks, s.pickNS)
	t.child("core.proactive.executed", s.executed, s.executedNS)
	t.child("core.proactive.lifecycle", s.lifecycleN, s.lifecycle)
	*s = timedProactive{Proactive: s.Proactive}
}

// loopStats are the traced loop's counts.
type loopStats struct {
	execs, steps, truncated int64
	stages, skipped         int64
	added                   int64
	positive, satisfied     int64
	negative, rejected      int64
	memSamples              int64
	mallocs, bytes          uint64
	corpus, pool            int64
}

// allocEvery is how often the traced loop measures one exec.Run's
// allocations exactly, with runtime.ReadMemStats on both sides.
const allocEvery = 16

// tracedFuzz is Algorithm 1 rebuilt from core's exported pieces, with a
// span around every call into core and exec. It must reproduce
// core.Fuzzer's report at the same options; traceCampaign checks that.
func tracedFuzz(t *tracer, st *loopStats, name string, body exec.Program, opts core.Options) *core.Report {
	t.begin("core.fuzz")
	defer t.end()
	fb := core.NewFeedback()
	corpus := core.NewCorpus(opts.InitialCorpus...)
	pool := core.NewEventPool()
	prox := &timedProactive{Proactive: core.NewProactive()}
	rng := rand.New(rand.NewSource(opts.Seed))
	intern := exec.NewInternTable()
	recycler := exec.NewRecycler()
	rep := &core.Report{Program: name}
	ctx := context.Background()

	var entry *core.Entry
	energyLeft := 0
	for rep.Executions < opts.Budget {
		if energyLeft <= 0 {
			t.begin("core.corpus")
			entry = corpus.PickNext()
			t.end()
			t.begin("core.energy")
			energyLeft = corpus.Energy(entry, fb, opts.Power)
			t.end()
			st.stages++
			if energyLeft == 0 {
				st.skipped++
			}
			continue
		}
		energyLeft--

		t.begin("core.mutate")
		mut := core.Mutate(entry.Schedule, pool, rng, opts.Mutator)
		seed := rng.Int63()
		prox.SetSchedule(mut)
		t.end()
		for _, c := range mut.Constraints() {
			if c.Negated {
				st.negative++
			} else {
				st.positive++
			}
		}

		sample := st.execs%allocEvery == 0
		var m0, m1 runtime.MemStats
		if sample {
			t.begin("bench.memprobe")
			runtime.ReadMemStats(&m0)
			t.end()
		}
		t.begin("exec.run")
		res := exec.Run(name, body, exec.Config{
			Scheduler: prox,
			Seed:      seed,
			Ctx:       ctx,
			MaxSteps:  opts.MaxSteps,
			Intern:    intern,
			Recycle:   recycler,
		})
		prox.drain(t)
		t.end()
		if sample {
			t.begin("bench.memprobe")
			runtime.ReadMemStats(&m1)
			t.end()
			st.memSamples++
			st.mallocs += m1.Mallocs - m0.Mallocs
			st.bytes += m1.TotalAlloc - m0.TotalAlloc
		}
		rep.Executions++
		st.execs++
		st.steps += int64(res.Steps())
		if res.Truncated {
			st.truncated++
		}
		st.satisfied += int64(prox.SatisfiedCount())
		st.rejected += int64(prox.RejectedCount())

		t.begin("core.observe")
		obs := fb.Observe(res.Trace)
		t.end()
		t.begin("core.pool_add")
		pool.AddTrace(res.Trace)
		t.end()
		if entry.Sig == 0 {
			entry.Sig = obs.Sig
		}
		crashed := res.Buggy()
		if crashed {
			rep.Failures = append(rep.Failures, core.FailureRecord{
				Schedule:  mut,
				Seed:      seed,
				Execution: rep.Executions,
				Failure:   res.Failure,
				Decisions: res.Trace.ThreadOrder(),
			})
			if rep.FirstBug == 0 {
				rep.FirstBug = rep.Executions
			}
		}
		t.begin("core.observe")
		interesting := fb.Interesting(obs, crashed)
		t.end()
		if interesting {
			t.begin("core.corpus")
			_, added := corpus.Add(&core.Entry{Schedule: mut, Sig: obs.Sig, Perf: obs.NewPairs})
			t.end()
			if added {
				st.added++
			}
		}
		t.begin("exec.reclaim")
		recycler.Reclaim(res.Trace)
		t.end()
	}
	rep.CorpusSize = corpus.Len()
	rep.UniquePairs = fb.UniquePairs()
	rep.UniqueSigs = fb.UniqueSigs()
	rep.SigFrequencies = fb.SigFrequencies()
	st.corpus += int64(corpus.Len())
	st.pool += int64(pool.Size())
	return rep
}

// traceCampaign runs the traced loop for the rest of the run, checks
// its reports against core.Fuzzer's, and sets the per-layer metrics.
func traceCampaign(cfg config, res *result, inputs []campaignInput, reference []*core.Report, untracedNS float64) {
	t := newTracer("campaign")
	var st loopStats
	deadline := time.Now().Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	var wallNS float64
	rounds := 0
	for ; rounds < 1 || time.Now().Before(deadline); rounds++ {
		t0 := time.Now()
		var reps []*core.Report
		for _, c := range inputs {
			reps = append(reps, tracedFuzz(t, &st, c.name, c.body, c.opts))
		}
		wallNS += float64(time.Since(t0).Nanoseconds())
		for i := range reps {
			if err := compareReports(reference[i], reps[i]); err != nil {
				res.fail("traced loop on %s differs from core.Fuzzer: %v", inputs[i].name, err)
				res.failed++
			}
		}
	}
	writeSpans(res, t, cfg)

	execs := float64(st.execs)
	perCall := func(name string) float64 { return ratio(float64(t.selfNS(name)), float64(t.count(name))) }
	execSelf := float64(t.selfNS("exec.run") + t.selfNS("exec.reclaim"))
	res.set("exec.self_us_per_exec", "us", ratio(execSelf, execs)/1e3)
	res.set("exec.self_ns_per_step", "ns", ratio(execSelf, float64(st.steps)))
	res.set("exec.steps_per_exec", "count", ratio(float64(st.steps), execs))
	res.set("exec.allocs_per_exec", "count", ratio(float64(st.mallocs), float64(st.memSamples)))
	res.set("exec.bytes_per_exec", "B", ratio(float64(st.bytes), float64(st.memSamples)))
	res.set("exec.truncated_ratio", "ratio", ratio(float64(st.truncated), execs))
	res.set("core.proactive.pick_ns", "ns", perCall("core.proactive.pick"))
	res.set("core.proactive.executed_ns", "ns", perCall("core.proactive.executed"))
	res.set("core.proactive.picks_per_exec", "count", ratio(float64(t.count("core.proactive.pick")), execs))
	res.set("core.proactive.satisfied_ratio", "ratio", ratio(float64(st.satisfied), float64(st.positive)))
	res.set("core.proactive.rejected_ratio", "ratio", ratio(float64(st.rejected), float64(st.negative)))
	res.set("core.mutate_ns", "ns", perCall("core.mutate"))
	res.set("core.observe_ns", "ns", ratio(float64(t.selfNS("core.observe")), execs))
	res.set("core.pool_add_ns", "ns", perCall("core.pool_add"))
	res.set("core.energy_ns", "ns", perCall("core.energy"))
	res.set("core.corpus_ns", "ns", perCall("core.corpus"))
	campaigns := float64(rounds * len(inputs))
	res.set("core.corpus_size", "count", ratio(float64(st.corpus), campaigns))
	res.set("core.pool_size", "count", ratio(float64(st.pool), campaigns))
	res.set("core.interesting_ratio", "ratio", ratio(float64(st.added), execs))
	res.set("core.skip_ratio", "ratio", ratio(float64(st.skipped), float64(st.stages)))
	pairs := 0
	for _, r := range reference {
		pairs += r.UniquePairs
	}
	res.set("core.rf_pairs", "count", float64(pairs))
	coverage := t.coverage("core.fuzz", wallNS)
	res.set("bench.span_coverage_pct", "%", coverage)
	res.set("bench.trace_overhead_pct", "%", (ratio(wallNS/execs, untracedNS)-1)*100)
	res.notef("traced: %d executions over %d rounds; %d alloc samples (every %dth exec.Run)", st.execs, rounds, st.memSamples, allocEvery)
	res.notef("ratio bases: exec.*_per_exec and core.observe_ns per execution (%d); exec.self_ns_per_step per step (%d); pick_ns per Pick (%d); executed_ns per Executed (%d); mutate/pool_add/energy/corpus ns per call",
		st.execs, st.steps, t.count("core.proactive.pick"), t.count("core.proactive.executed"))
	res.notef("ratio bases: satisfied_ratio = satisfied / %d positive constraints driven; rejected_ratio = violated / %d negative constraints driven; interesting_ratio = corpus additions / executions; skip_ratio = %d zero-energy stages / %d stages; corpus_size and pool_size are means over %d campaigns",
		st.positive, st.negative, st.skipped, st.stages, int64(campaigns))
	res.notef("span coverage: exec, core.proactive and core.* self times explain %.1f%% of %.3f s traced wall less the benchmark's own spans and clock reads; the loop glue in core.fuzz's self time is %.1f%% of the traced wall",
		coverage, wallNS/1e9, ratio(float64(t.selfNS("core.fuzz")), wallNS)*100)
}
