// Package systematic provides the two enumerative baselines of the
// evaluation:
//
//   - Explore — an exhaustive depth-first enumeration of the scheduling
//     decision tree with reads-from class accounting: the stand-in for the
//     GenMC stateless model checker. Precise and complete on small
//     programs, hopeless on wide ones, exactly as in the paper's table
//     (where GenMC errors out or is omitted on most subjects).
//
//   - ICB — deterministic iterative preemption bounding over a
//     non-preemptive baseline schedule, preferring recently spawned
//     threads as preemption targets: the stand-in for PERIOD's systematic
//     periodical exploration (strong on shallow bugs, paying a large
//     schedule cost on wide programs).
package systematic

import (
	"context"

	"rff/internal/exec"
)

// ExploreOptions bounds the exhaustive enumeration.
type ExploreOptions struct {
	// MaxExecutions caps the number of schedules explored. Required.
	MaxExecutions int
	// MaxSteps bounds each execution (0 = engine default).
	MaxSteps int
	// StopAtFirstBug ends the exploration at the first failing schedule.
	StopAtFirstBug bool
	// OnExecution, if non-nil, is invoked with every counted execution's
	// result before its trace is reclaimed — the visitor the conformance
	// harness uses to collect the full enumerated behavior set. The
	// callback must not retain the result's trace (its backing arrays are
	// recycled into the next execution); cancelled partial executions are
	// never reported.
	OnExecution func(res *exec.Result)
}

// ExploreReport summarizes an exhaustive enumeration.
type ExploreReport struct {
	// Executions is the number of schedules run.
	Executions int
	// FirstBug is the 1-based execution index of the first failure
	// (0 = none found).
	FirstBug int
	// FirstFailure describes the first failure.
	FirstFailure *exec.Failure
	// Classes counts the distinct reads-from equivalence classes
	// observed — the quantity partial-order and reads-from reduction
	// techniques exploit (exponentially fewer classes than schedules).
	Classes int
	// Complete reports whether the whole decision tree was enumerated
	// within the budget.
	Complete bool
}

// forced replays a fixed prefix of decision indices, then always picks the
// first enabled event, recording the branching width at every step so the
// driver can advance to the next unexplored leaf.
type forced struct {
	prefix []int
	pos    int
	widths []int
}

func (f *forced) Name() string     { return "DFS" }
func (f *forced) Begin(seed int64) { f.pos = 0; f.widths = f.widths[:0] }
func (f *forced) Pick(v *exec.View) int {
	choice := 0
	if f.pos < len(f.prefix) {
		choice = f.prefix[f.pos]
		if choice >= len(v.Enabled) {
			// The tree shifted under a diverging prefix; clamp. This
			// cannot happen for prefixes harvested from real runs.
			choice = len(v.Enabled) - 1
		}
	}
	f.widths = append(f.widths, len(v.Enabled))
	f.pos++
	return choice
}
func (f *forced) Executed(exec.Event) {}
func (f *forced) End(*exec.Trace)     {}

// Explore exhaustively enumerates the scheduling tree of the program in
// depth-first lexicographic order.
func Explore(name string, prog exec.Program, opts ExploreOptions) *ExploreReport {
	return ExploreContext(context.Background(), name, prog, opts)
}

// ExploreContext is Explore under a context: cancellation stops the
// in-flight execution within one scheduling step and returns the
// enumeration state reached so far (a cancelled partial execution is
// discarded, so the report is a prefix of the uninterrupted one).
func ExploreContext(ctx context.Context, name string, prog exec.Program, opts ExploreOptions) *ExploreReport {
	if opts.MaxExecutions <= 0 {
		panic("systematic.Explore: MaxExecutions must be positive")
	}
	rep := &ExploreReport{}
	classes := make(map[uint64]struct{})
	sched := &forced{}
	// Signatures of all enumerated traces resolve through one table, and
	// trace arrays recycle between executions.
	intern := exec.NewInternTable()
	recycler := exec.NewRecycler()

	for rep.Executions < opts.MaxExecutions {
		res := exec.Run(name, prog, exec.Config{
			Scheduler: sched,
			Ctx:       ctx,
			MaxSteps:  opts.MaxSteps,
			Intern:    intern,
			Recycle:   recycler,
		})
		if res.Cancelled {
			// The abandoned run recorded a bogus widths/prefix state;
			// stop here rather than advance the tree from it.
			recycler.Reclaim(res.Trace)
			break
		}
		rep.Executions++
		classes[res.Trace.RFSignature()] = struct{}{}
		if opts.OnExecution != nil {
			opts.OnExecution(res)
		}
		buggy := res.Buggy()
		recycler.Reclaim(res.Trace)
		if buggy && rep.FirstBug == 0 {
			rep.FirstBug = rep.Executions
			rep.FirstFailure = res.Failure
			if opts.StopAtFirstBug {
				break
			}
		}

		// Advance to the next leaf: deepest step with an untried sibling.
		full := make([]int, len(sched.widths))
		copy(full, sched.prefix)
		i := len(full) - 1
		for i >= 0 && full[i]+1 >= sched.widths[i] {
			i--
		}
		if i < 0 {
			rep.Complete = true
			break
		}
		next := make([]int, i+1)
		copy(next, full[:i+1])
		next[i]++
		sched.prefix = next
	}
	rep.Classes = len(classes)
	return rep
}

// ICBOptions bounds the preemption-bounded exploration.
type ICBOptions struct {
	// MaxExecutions caps the number of schedules. Required.
	MaxExecutions int
	// MaxSteps bounds each execution (0 = engine default).
	MaxSteps int
	// MaxBound caps the preemption bound (default 2).
	MaxBound int
	// StopAtFirstBug ends the exploration at the first failing schedule.
	StopAtFirstBug bool
	// OnExecution, if non-nil, is invoked with every counted execution's
	// result (see ExploreOptions.OnExecution for the retention rules).
	OnExecution func(res *exec.Result)
}

// ICBReport summarizes a preemption-bounded exploration.
type ICBReport struct {
	Executions   int
	FirstBug     int
	FirstFailure *exec.Failure
	// BoundReached is the largest preemption bound fully enumerated.
	BoundReached int
}

// preemption forces a switch to a target thread at (or as soon as possible
// after) a given step of the run.
type preemption struct {
	step   int
	target exec.ThreadID
}

// icbScheduler runs non-preemptively (current thread keeps running while
// enabled), applying the configured preemptions in order. A preemption
// whose target is not yet enabled stays armed until it is.
type icbScheduler struct {
	preemptions []preemption
	nextP       int
	step        int
	current     exec.ThreadID
	// maxThread records the highest thread ID seen, so the driver learns
	// the (deterministic) thread universe from the baseline run.
	maxThread exec.ThreadID
	// steps records the baseline length for the driver.
	steps int
}

func (s *icbScheduler) Name() string { return "ICB" }
func (s *icbScheduler) Begin(seed int64) {
	s.nextP = 0
	s.step = 0
	s.current = 0
	s.steps = 0
	s.maxThread = 0
}

func (s *icbScheduler) Pick(v *exec.View) int {
	defer func() { s.step++ }()
	for i := range v.Enabled {
		if th := v.Enabled[i].Thread; th > s.maxThread {
			s.maxThread = th
		}
	}
	// Armed preemption: switch as soon as the target is enabled.
	if s.nextP < len(s.preemptions) && s.step >= s.preemptions[s.nextP].step {
		want := s.preemptions[s.nextP].target
		for i := range v.Enabled {
			if v.Enabled[i].Thread == want {
				s.nextP++
				s.current = want
				return i
			}
		}
	}
	// Keep running the current thread while it is enabled.
	for i := range v.Enabled {
		if v.Enabled[i].Thread == s.current {
			return i
		}
	}
	// Current thread blocked or exited: fall to the lowest-ID enabled.
	s.current = v.Enabled[0].Thread
	return 0
}
func (s *icbScheduler) Executed(exec.Event) { s.steps++ }
func (s *icbScheduler) End(*exec.Trace)     {}

// ICB explores the program with iterative preemption bounding: bound 0 is
// the non-preemptive baseline; bound k+1 extends every bound-k schedule
// with one more forced switch. Preemption targets are tried in reverse
// spawn order (most recently created threads first), which mirrors
// PERIOD's bias toward exercising late-spawned checker threads early.
func ICB(name string, prog exec.Program, opts ICBOptions) *ICBReport {
	return ICBContext(context.Background(), name, prog, opts)
}

// ICBContext is ICB under a context: cancellation stops the in-flight
// execution within one scheduling step and ends the exploration,
// discarding the cancelled partial execution.
func ICBContext(ctx context.Context, name string, prog exec.Program, opts ICBOptions) *ICBReport {
	if opts.MaxExecutions <= 0 {
		panic("systematic.ICB: MaxExecutions must be positive")
	}
	if opts.MaxBound <= 0 {
		opts.MaxBound = 2
	}
	rep := &ICBReport{}
	sched := &icbScheduler{}

	runOne := func(ps []preemption) (stop bool) {
		sched.preemptions = ps
		res := exec.Run(name, prog, exec.Config{Scheduler: sched, Ctx: ctx, MaxSteps: opts.MaxSteps})
		if res.Cancelled {
			return true
		}
		rep.Executions++
		if opts.OnExecution != nil {
			opts.OnExecution(res)
		}
		if res.Buggy() && rep.FirstBug == 0 {
			rep.FirstBug = rep.Executions
			rep.FirstFailure = res.Failure
			if opts.StopAtFirstBug {
				return true
			}
		}
		return rep.Executions >= opts.MaxExecutions
	}

	// Bound 0: baseline, which also discovers the thread universe and
	// schedule length (both deterministic).
	if runOne(nil) {
		return rep
	}
	nThreads := int(sched.maxThread)
	baseLen := sched.steps
	rep.BoundReached = 0

	// targets in reverse spawn order.
	targets := make([]exec.ThreadID, 0, nThreads)
	for id := nThreads; id >= 1; id-- {
		targets = append(targets, exec.ThreadID(id))
	}

	// enumerate extends a preemption list by one switch in all ways.
	var enumerate func(prefix []preemption, fromStep, depth int) bool
	enumerate = func(prefix []preemption, fromStep, depth int) bool {
		for _, tgt := range targets {
			for s := fromStep; s <= baseLen; s++ {
				ps := append(append([]preemption(nil), prefix...), preemption{step: s, target: tgt})
				if depth == 1 {
					if runOne(ps) {
						return true
					}
				} else if enumerate(ps, s+1, depth-1) {
					return true
				}
			}
		}
		return false
	}

	for bound := 1; bound <= opts.MaxBound; bound++ {
		if enumerate(nil, 0, bound) {
			return rep
		}
		rep.BoundReached = bound
	}
	return rep
}
