package main

import (
	"context"
	"time"

	"rff/internal/campaign"
	"rff/internal/conformance"
	"rff/internal/exec"
	"rff/internal/progen"
	"rff/internal/strategy"
	"rff/internal/systematic"
	"rff/internal/telemetry"
)

// conformanceMaxSteps is conformance.Options' default MaxSteps, passed
// explicitly so the traced run's direct explorer calls match it.
const conformanceMaxSteps = 4096

// conformanceMinRounds rounds always run; bugs_found counts them, so it
// is a pure function of the seed.
const conformanceMinRounds = 20

// conformanceOptions are round r's options. Every round checks a fresh
// slice of the progen stream, drawn from a seed derived from the
// workload seed and r.
//
// A program's ground truth comes in a few sizes, so per-program cost is
// lumpy and a run's figures move with the mix of sizes the seed draws.
// Small programs (two worker threads of three operations) and a tool
// budget of 30 fit over a thousand programs in a 25 s run, which
// averages the mix out; README.md ("Conformance programs") gives the
// measured spreads. The ground-truth budget of 500 still skips about 6%
// of candidates, so skipped candidates remain part of the work.
func conformanceOptions(cfg config, round int) conformance.Options {
	programs := 32
	if cfg.small {
		programs = 2
	}
	return conformance.Options{
		Programs: programs,
		Seed:     campaign.TrialSeed(cfg.seed, "perfbench/conformance", "round", round),
		Budget:   30,
		GTBudget: 500,
		MaxSteps: conformanceMaxSteps,
		Workers:  cfg.workers,
		Grammar:  "all",
		Gen:      progen.Options{MaxThreads: 2, OpBudget: 3},
	}
}

// generatorOptions are the progen options conformance.Run derives from
// opts.
func generatorOptions(opts conformance.Options) progen.Options {
	g := opts.Gen
	f, err := progen.ParseGrammar(opts.Grammar)
	if err != nil {
		panic(err)
	}
	g.Features = f
	return g
}

// conformanceRound is what one conformance.Run reports to its caller.
type conformanceRound struct {
	wall  float64
	execs int64
	bugs  int64
}

// runConformanceRound runs round r, checks its report and appends the
// time of each checked program to lat.
func runConformanceRound(res *result, opts conformance.Options, lat *[]float64) (conformanceRound, *conformance.Report) {
	t0 := time.Now()
	last := t0
	opts.Progress = func(done, total int) {
		now := time.Now()
		*lat = append(*lat, float64(now.Sub(last).Nanoseconds())/1e6)
		last = now
	}
	rep := conformance.Run(opts)
	r := conformanceRound{wall: time.Since(t0).Seconds(), execs: rep.GTExecutions}
	for _, tr := range rep.Tools {
		r.execs += tr.Executions
		r.bugs += int64(tr.BugsFound)
	}
	res.attempted += int64(opts.Programs)
	if !rep.OK() {
		res.failed += int64(max(len(rep.Violations), 1))
		res.fail("conformance seed %d: report not OK: %s %v", opts.Seed, rep.Err, rep.Violations)
	}
	return r, rep
}

// runConformance measures conformance.Run over progen programs of
// grammar "all" with every registered strategy on nproc workers.
func runConformance(cfg config) *result {
	res := newResult()
	_, setup := timeSetup(func() []*progen.Program {
		opts := conformanceOptions(cfg, 0)
		opts.Specs = strategy.Names()
		g := progen.NewGenerator(opts.Seed, generatorOptions(opts))
		progs := make([]*progen.Program, opts.Programs)
		for i := range progs {
			progs[i] = g.Next()
		}
		return progs
	}, nil)
	res.set("setup_s", "s", setup)

	measureFor := cfg.seconds
	if cfg.trace {
		measureFor /= 2
	}
	deadline := time.Now().Add(time.Duration(measureFor * float64(time.Second)))
	var (
		lat   []float64
		walls []float64
		rates []float64
		execs int64
		bugs  int64
	)
	mem := startMem()
	for round := 0; round < conformanceMinRounds || time.Now().Before(deadline); round++ {
		r, _ := runConformanceRound(res, conformanceOptions(cfg, round), &lat)
		walls = append(walls, r.wall)
		rates = append(rates, float64(r.execs)/r.wall)
		execs += r.execs
		if round < conformanceMinRounds {
			bugs += r.bugs
		}
	}
	setMemory(res, mem, execs)
	l := summarizeUpTo(lat, 95)
	opts := conformanceOptions(cfg, 0)
	res.set("wall_s", "s", median(walls))
	res.set("execs_per_s", "1/s", median(rates))
	res.set("op_p50_ms", "ms", l.p50)
	res.set("op_tail_ms", "ms", l.tail)
	res.set("bugs_found", "count", float64(bugs))
	res.notef("operation = one checked program, including the skipped candidates drawn before it; %s; %d rounds of %d programs, budget %d, ground-truth budget %d",
		l.note("op_tail_ms"), len(walls), opts.Programs, opts.Budget, opts.GTBudget)
	res.notef("executions = ground-truth executions of checked programs plus every tool execution; bugs_found = tool trials that observed a failure in the first %d rounds", conformanceMinRounds)

	if cfg.trace {
		traceConformance(cfg, res, walls)
	}
	return res
}

// traceConformance reruns the first rounds with a telemetry hub behind a
// timing sink, then calls the generator and the explorer directly on
// the same candidate programs, and sets the per-layer metrics.
func traceConformance(cfg config, res *result, untraced []float64) {
	t := newTracer("conformance")
	deadline := time.Now().Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	var (
		lat                     []float64
		tracedWall, pairedWall  float64
		candidates              int64
		checkedExecs, skipExecs int64
		toolsBusyNS             float64
		replays                 int64
		coverage                []int64
		rounds                  int
	)
	ctx := context.Background()
	for ; rounds < 1 || (time.Now().Before(deadline) && rounds < len(untraced)); rounds++ {
		opts := conformanceOptions(cfg, rounds)
		sink := newTimedSink()
		opts.Telemetry = sink
		t.begin("conformance.run")
		r, rep := runConformanceRound(res, opts, &lat)
		t.end()
		tracedWall += r.wall
		if rounds < len(untraced) {
			pairedWall += untraced[rounds]
		}
		replays += sink.total(telemetry.MConformanceReplays)
		coverage = append(coverage, sink.observed(telemetry.MConformanceCoverage, "")...)

		// The same candidate stream, through the layers directly.
		direct := t.totalNS("progen.generate") + t.totalNS("systematic.explore")
		g := progen.NewGenerator(opts.Seed, generatorOptions(opts))
		var roundChecked, gtExecs int64
		for i := 0; i < rep.Programs+rep.Skipped; i++ {
			t.begin("progen.generate")
			p := g.Next()
			t.end()
			bp := p.Bench()
			var n int64
			truncated := false
			t.begin("systematic.explore")
			er := systematic.ExploreContext(ctx, bp.Name, bp.Body, systematic.ExploreOptions{
				MaxExecutions: opts.GTBudget,
				MaxSteps:      opts.MaxSteps,
				OnExecution: func(res *exec.Result) {
					n++
					truncated = truncated || res.Truncated
				},
			})
			t.end()
			candidates++
			if er.Complete && !truncated {
				roundChecked++
				checkedExecs += n
				gtExecs += n
			} else {
				skipExecs += n
			}
		}
		direct = t.totalNS("progen.generate") + t.totalNS("systematic.explore") - direct
		toolsBusyNS += r.wall*1e9 - float64(direct)
		if roundChecked != int64(rep.Programs) || gtExecs != rep.GTExecutions {
			res.fail("seed %d: direct enumeration checked %d programs with %d executions, conformance.Run %d with %d",
				opts.Seed, roundChecked, gtExecs, rep.Programs, rep.GTExecutions)
			res.failed++
		}
	}
	writeSpans(res, t, cfg)

	allExecs := float64(checkedExecs + skipExecs)
	exploreNS := float64(t.selfNS("systematic.explore"))
	res.set("progen.generate_us", "us", ratio(float64(t.selfNS("progen.generate")), float64(t.count("progen.generate")))/1e3)
	res.set("systematic.explore_s", "s", exploreNS/1e9/float64(rounds))
	res.set("systematic.ns_per_exec", "ns", ratio(exploreNS, allExecs))
	res.set("systematic.execs_per_program", "count", ratio(allExecs, float64(candidates)))
	res.set("systematic.skipped_exec_share", "ratio", ratio(float64(skipExecs), allExecs))
	res.set("conformance.tools_busy_s", "s", toolsBusyNS/1e9/float64(rounds))
	res.set("conformance.replays", "count", float64(replays)/float64(rounds))
	cov := make([]float64, len(coverage))
	for i, c := range coverage {
		cov[i] = float64(c)
	}
	res.set("conformance.rf_coverage_pct", "%", ratio(sum(cov), float64(len(cov))))
	res.set("bench.trace_overhead_pct", "%", (ratio(tracedWall, pairedWall)-1)*100)
	res.notef("traced: rounds 0-%d rerun with a telemetry hub; explore_s, tools_busy_s and replays are per round", rounds-1)
	res.notef("ratio bases: generate_us per candidate (%d); ns_per_exec over %d enumeration executions; skipped_exec_share = %d executions on skipped candidates / all; rf_coverage_pct is the mean final coverage over %d tool cells",
		candidates, int64(allExecs), skipExecs, len(cov))
}
