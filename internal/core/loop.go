package core

import (
	"context"
	"math/rand"

	"rff/internal/exec"
	"rff/internal/telemetry"
)

// Loop is Algorithm 1's campaign state with the two halves of the loop
// that do not depend on how executions run: the stage planner (pick a
// corpus entry, assign its power-schedule energy) and the fold (feed one
// executed mutant back into feedback, event pool, corpus and report).
// Fuzzer drives it one execution at a time; the sharded runner plans a
// whole epoch, runs it on several workers and folds the results in plan
// order. A Loop is not safe for concurrent use.
type Loop struct {
	name   string
	opts   Options
	corpus *Corpus
	fb     *Feedback
	pool   *EventPool
	// intern is the campaign table every ID handed to Fold resolves
	// through.
	intern *exec.InternTable
	rep    *Report
	// failSeen holds the Failure.Key of every failure in rep.Failures.
	failSeen map[string]bool

	// The in-progress stage: Next hands out curEntry energyLeft more
	// times before picking again, so any chunking of the budget plans
	// the same executions.
	curEntry   *Entry
	energyLeft int
	stopped    bool // StopAtFirstBug tripped

	tel    telemetry.Sink
	labels []telemetry.Label // {program: name}, reused across calls
}

// NewLoop returns the state of a fresh campaign on the named program.
// It reads the options' Budget, Power, DisableFeedback, StopAtFirstBug,
// InitialCorpus and Telemetry.
func NewLoop(name string, opts Options) *Loop {
	return &Loop{
		name:     name,
		opts:     opts,
		corpus:   NewCorpus(opts.InitialCorpus...),
		fb:       NewFeedback(),
		pool:     NewEventPool(),
		intern:   exec.NewInternTable(),
		rep:      &Report{Program: name},
		failSeen: make(map[string]bool),
		tel:      opts.Telemetry,
		labels:   []telemetry.Label{{Name: "program", Value: name}},
	}
}

// Pool returns the event pool mutation draws constraints from.
func (l *Loop) Pool() *EventPool { return l.pool }

// Intern returns the campaign intern table Fold's IDs resolve through.
func (l *Loop) Intern() *exec.InternTable { return l.intern }

// Executions returns the number of executions folded so far.
func (l *Loop) Executions() int { return l.rep.Executions }

// CorpusLen returns the current corpus size.
func (l *Loop) CorpusLen() int { return l.corpus.Len() }

// Done reports whether the campaign is over: the budget is exhausted or
// StopAtFirstBug ended it.
func (l *Loop) Done() bool {
	return l.stopped || l.rep.Executions >= l.opts.Budget
}

// Next plans one execution and returns the corpus entry to mutate for
// it. When the current stage's energy is spent it picks the next entry
// round-robin and assigns its power-schedule energy (unit energy without
// feedback); a stage with zero energy is skipped.
func (l *Loop) Next() *Entry {
	for l.energyLeft <= 0 {
		entry := l.corpus.PickNext()
		energy := 1
		if !l.opts.DisableFeedback {
			energy = l.corpus.Energy(entry, l.fb, l.opts.Power)
		}
		if t := l.tel; t != nil {
			// Bucket 0 counts skipped stages (energy 0).
			t.Observe(telemetry.MEnergyAssigned, int64(energy), l.labels...)
		}
		l.curEntry, l.energyLeft = entry, energy
	}
	l.energyLeft--
	return l.curEntry
}

// Fold counts one execution of mut, a mutant of entry, and feeds it
// back: feedback, event pool, the report's failures and first bug, and —
// when it is interesting — the corpus. sum's IDs must resolve through the
// loop's intern table; Fold reads its Sig, PairIDs, EventIDs and Events.
// decisions yields a failing execution's replay decisions and is read
// only for the first failure of a new key. Fold reports whether the
// execution crashed.
func (l *Loop) Fold(entry *Entry, mut Schedule, seed int64, sum *exec.Summary, failure *exec.Failure, decisions interface{ ThreadOrder() []exec.ThreadID }) (crashed bool) {
	rep := l.rep
	rep.Executions++
	obs := l.fb.ObserveIDs(sum.PairIDs, sum.Sig)
	for i, id := range sum.EventIDs {
		l.pool.AddEvent(id, sum.Events[i])
	}
	if entry.Sig == 0 {
		// Seed entries (ε) carry no signature until first executed; bind
		// them to their observed combination so the power schedule can
		// skip them once that combination is over-explored.
		entry.Sig = obs.Sig
	}
	crashed = failure != nil
	if t := l.tel; t != nil {
		t.Add(telemetry.MSchedulesExecuted, 1, l.labels...)
		if obs.NewPairs > 0 {
			t.Add(telemetry.MRFPairsNew, int64(obs.NewPairs), l.labels...)
		}
		if obs.NewSig {
			t.Add(telemetry.MRFCombosNew, 1, l.labels...)
		}
		if crashed {
			t.Add(telemetry.MSchedulesCrashed, 1, l.labels...)
		}
	}
	if crashed {
		if k := failure.Key(); !l.failSeen[k] {
			l.failSeen[k] = true
			rep.Failures = append(rep.Failures, FailureRecord{
				Schedule:  mut,
				Seed:      seed,
				Execution: rep.Executions,
				Failure:   failure,
				Decisions: decisions.ThreadOrder(),
			})
		}
		if rep.FirstBug == 0 {
			rep.FirstBug = rep.Executions
			if t := l.tel; t != nil {
				t.Emit(telemetry.EvFirstBug, telemetry.Fields{
					"program":   l.name,
					"execution": rep.Executions,
					"kind":      failure.Kind.String(),
					"msg":       failure.Msg,
				})
			}
		}
		if l.opts.StopAtFirstBug {
			l.stopped = true
		}
	}
	if !l.opts.DisableFeedback && l.fb.Interesting(obs, crashed) {
		if _, added := l.corpus.Add(&Entry{Schedule: mut, Sig: obs.Sig, Perf: obs.NewPairs}); added {
			if t := l.tel; t != nil {
				t.Add(telemetry.MCorpusAdds, 1, l.labels...)
				t.Set(telemetry.MCorpusSize, int64(l.corpus.Len()), l.labels...)
				t.Emit(telemetry.EvInteresting, telemetry.Fields{
					"program":     l.name,
					"execution":   rep.Executions,
					"new_pairs":   obs.NewPairs,
					"new_combo":   obs.NewSig,
					"crashed":     crashed,
					"corpus_size": l.corpus.Len(),
				})
			}
		}
	}
	return crashed
}

// Finish copies the final feedback statistics into the report and
// returns it. It may be called repeatedly; later executions refresh the
// statistics on the same report.
func (l *Loop) Finish() *Report {
	rep := l.rep
	if t := l.tel; t != nil {
		t.Set(telemetry.MCorpusSize, int64(l.corpus.Len()), l.labels...)
	}
	rep.CorpusSize = l.corpus.Len()
	rep.UniquePairs = l.fb.UniquePairs()
	rep.UniqueSigs = l.fb.UniqueSigs()
	rep.SigFrequencies = l.fb.SigFrequencies()
	return rep
}

// Executor is what one goroutine needs to run mutants: its proactive
// scheduler, RNG, intern table and trace recycler.
type Executor struct {
	Sched   *Proactive
	Rng     *rand.Rand
	Intern  *exec.InternTable
	Recycle *exec.Recycler
}

// Run is Algorithm 1's inner step: mutate entry's schedule against the
// event pool, draw the execution seed, steer the proactive scheduler
// with the mutant (or with nothing under DisableProactive), and execute.
// It reads the options' MaxSteps, Mutator, DisableProactive and
// Telemetry. The caller reclaims res.Trace.
func (x *Executor) Run(ctx context.Context, name string, prog exec.Program, opts *Options, entry *Entry, pool *EventPool) (mut Schedule, seed int64, res *exec.Result) {
	mut = Mutate(entry.Schedule, pool, x.Rng, opts.Mutator)
	seed = x.Rng.Int63()
	if opts.DisableProactive {
		x.Sched.SetSchedule(EmptySchedule()) // machines off: pure POS
	} else {
		x.Sched.SetSchedule(mut)
	}
	res = exec.Run(name, prog, exec.Config{
		Scheduler: x.Sched,
		Seed:      seed,
		Ctx:       ctx,
		MaxSteps:  opts.MaxSteps,
		Telemetry: opts.Telemetry,
		Intern:    x.Intern,
		Recycle:   x.Recycle,
	})
	return mut, seed, res
}
