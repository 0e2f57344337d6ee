package shard

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/telemetry"
)

// Options configures a sharded fuzzing campaign on one program. The
// core fields mirror core.Options; the sharding fields control how the
// budget is spread across workers.
type Options struct {
	// Budget is the total number of counted executions. Required.
	Budget int
	// MaxSteps bounds each execution's event count (0 = engine default).
	MaxSteps int
	// Seed makes the whole campaign deterministic.
	Seed int64
	// Power tunes the power schedule.
	Power core.PowerConfig
	// Mutator tunes schedule mutation.
	Mutator core.MutatorConfig
	// DisableFeedback, DisableProactive and StopAtFirstBug are the
	// core.Options ablation/stop switches, unchanged.
	DisableFeedback  bool
	DisableProactive bool
	StopAtFirstBug   bool
	// InitialCorpus is Algorithm 1's S_init (ε when empty).
	InitialCorpus []core.Schedule
	// Telemetry, if non-nil, receives campaign metrics plus the sharding
	// series: shard_execs and shard_steals counters per {program,shard},
	// the shard_merge_ns histogram, the shard_utilization_pct gauge, and
	// epoch-merge events. The sink is called from W goroutines and must
	// be safe for concurrent use (telemetry.Hub is).
	Telemetry telemetry.Sink
	// FailureObserver, if non-nil, is invoked at the merge barrier with a
	// synthesized result for every counted failing execution, in counted
	// order. Unlike core.Options.ResultObserver it sees only failures,
	// and the result carries no live trace — only Program, Seed, Failure,
	// and a Trace holding the replay Decisions — because the shard that
	// ran the execution recycled its trace long before the barrier.
	FailureObserver func(res *exec.Result)

	// Shards is the worker count W (values < 1 mean 1). Each shard owns
	// a private intern table, recycler, and proactive scheduler; the
	// report is identical for every value.
	Shards int
	// Epoch is K, the steady-state number of executions planned between
	// merge barriers (0 = DefaultEpoch). Epoch sizes ramp geometrically
	// (1, 2, 4, ... up to K): the first executions fold their feedback
	// back almost immediately — mirroring the sequential loop's early
	// learning, where the event pool seeds mutation from execution two
	// onward — and the barrier cost amortizes once the campaign is warm.
	// The deterministic report is a pure function of (Seed, Budget,
	// Epoch) — shard count and batch size never enter it.
	Epoch int
	// Batch is the number of executions per work-stealing deque item
	// (0 = DefaultBatch). Batching amortizes deque traffic and scheduler
	// wakeups over several executions.
	Batch int
}

// DefaultEpoch is the executions-per-epoch used when Options.Epoch is 0.
const DefaultEpoch = 256

// DefaultBatch is the executions-per-batch used when Options.Batch is 0.
const DefaultBatch = 16

// Fuzz runs the sharded campaign to completion.
func Fuzz(name string, prog exec.Program, opts Options) *core.Report {
	return FuzzContext(context.Background(), name, prog, opts)
}

// FuzzContext runs the sharded campaign under ctx. Cancellation stops
// every in-flight execution within one scheduling step; the returned
// report covers the longest merged prefix of counted executions, so an
// interrupted deterministic campaign reports a prefix of the
// uninterrupted one.
func FuzzContext(ctx context.Context, name string, prog exec.Program, opts Options) *core.Report {
	if opts.Budget <= 0 {
		panic("shard.Fuzz: Options.Budget must be positive")
	}
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.Epoch <= 0 {
		opts.Epoch = DefaultEpoch
	}
	if opts.Batch <= 0 {
		opts.Batch = DefaultBatch
	}
	return newRunner(name, prog, opts).run(ctx)
}

// mixSeed derives the RNG seed of global execution index idx from the
// campaign seed — splitmix64-style, so per-execution streams are
// independent and depend only on (campaign seed, index), never on which
// shard runs the execution.
func mixSeed(seed int64, idx int) int64 {
	z := uint64(seed) ^ (uint64(int64(idx))+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// digest is the shard-side record of one executed schedule — everything
// the merge barrier needs, copied out of the trace before its backing
// arrays recycle into the shard's next execution. The pairIDs/eventIDs
// buffers persist across epochs (append into [:0]), so a steady-state
// epoch allocates nothing on the digest path.
type digest struct {
	done     bool // false = execution abandoned (ctx cancelled)
	shard    int  // which shard ran it; selects the remapper at merge
	sig      uint64
	pairIDs  []exec.PairID  // shard-local IDs
	eventIDs []exec.EventID // shard-local IDs
	mut      core.Schedule
	seed     int64
	failure  *exec.Failure
	// decisions replays the failing execution (nil for clean runs —
	// copying the schedule of every healthy execution would defeat
	// trace recycling).
	decisions []exec.ThreadID
}

// ThreadOrder returns the failing execution's replay decisions, so the
// digest can stand in for the recycled trace in core.Loop.Fold.
func (d *digest) ThreadOrder() []exec.ThreadID { return d.decisions }

// shardState is one worker shard's private world: its own intern table,
// trace recycler, proactive scheduler, and RNG, so the execution hot
// path takes no cross-shard lock. The remapper (shard table → campaign
// table) lives here too, but is only touched by the coordinator at the
// merge barrier.
type shardState struct {
	id    int
	deque *Deque
	x     core.Executor
	src   rand.Source // x.Rng's source, reseeded per execution
	remap *exec.Remapper

	// Per-epoch counters, folded into telemetry at the barrier.
	epochExecs     int64
	epochSteals    int64
	epochSatisfied int64
	epochRejected  int64
	// busy accumulates time spent executing batches, for the
	// utilization gauge.
	busy time.Duration

	labels []telemetry.Label // {program, shard}
}

// runner is the deterministic sharded campaign: a coordinator that
// plans epochs from frozen global state, W shards that execute the
// plan via work stealing, and a merge barrier that folds shard
// observations back into global state in global execution order.
type runner struct {
	name string
	prog exec.Program
	opts Options
	// copts is opts in core's terms, for the loop and the executors.
	copts core.Options

	// loop is the campaign-global state. Only the coordinator touches it:
	// shards read the frozen corpus entries and event pool during an
	// epoch and write nothing but their own digest slots.
	loop *core.Loop

	shards  []*shardState
	plan    []*core.Entry // reused epoch plan (one entry per execution)
	digests []digest      // reused epoch digest slots

	// sum is merge-barrier scratch: one digest remapped into the
	// campaign table.
	sum exec.Summary

	tel    telemetry.Sink
	labels []telemetry.Label
	start  time.Time
}

func newRunner(name string, prog exec.Program, opts Options) *runner {
	copts := core.Options{
		Budget:           opts.Budget,
		MaxSteps:         opts.MaxSteps,
		Seed:             opts.Seed,
		Power:            opts.Power,
		Mutator:          opts.Mutator,
		DisableFeedback:  opts.DisableFeedback,
		DisableProactive: opts.DisableProactive,
		StopAtFirstBug:   opts.StopAtFirstBug,
		InitialCorpus:    opts.InitialCorpus,
		Telemetry:        opts.Telemetry,
	}
	r := &runner{
		name:    name,
		prog:    prog,
		opts:    opts,
		copts:   copts,
		loop:    core.NewLoop(name, copts),
		plan:    make([]*core.Entry, 0, opts.Epoch),
		digests: make([]digest, opts.Epoch),
		tel:     opts.Telemetry,
		labels:  []telemetry.Label{telemetry.L("program", name)},
	}
	for i := 0; i < opts.Shards; i++ {
		src := rand.NewSource(1) // reseeded per execution
		s := &shardState{
			id: i,
			x: core.Executor{
				Sched:   core.NewProactive(),
				Rng:     rand.New(src),
				Intern:  exec.NewInternTable(),
				Recycle: exec.NewRecycler(),
			},
			src:    src,
			labels: []telemetry.Label{telemetry.L("program", name), telemetry.L("shard", strconv.Itoa(i))},
		}
		s.remap = exec.NewRemapper(s.x.Intern, r.loop.Intern())
		r.shards = append(r.shards, s)
	}
	return r
}

func (r *runner) run(ctx context.Context) *core.Report {
	r.start = time.Now()
	epoch := 0
	ramp := 1
	for !r.loop.Done() && ctx.Err() == nil {
		epochStart := r.loop.Executions()
		k := min(ramp, r.opts.Epoch, r.opts.Budget-epochStart)
		ramp = min(ramp*2, r.opts.Epoch)
		plan := r.planEpoch(k)
		r.runEpoch(ctx, plan, epochStart)
		interrupted := r.mergeEpoch(plan, epoch)
		epoch++
		if interrupted {
			break
		}
	}
	return r.finish()
}

// planEpoch freezes the next k executions with the loop's stage planner.
// Feedback does not move during an epoch, so every energy decision in
// the plan depends only on state as of the previous barrier: this is
// what makes the schedule independent of shard count.
func (r *runner) planEpoch(k int) []*core.Entry {
	plan := r.plan[:0]
	for len(plan) < k {
		plan = append(plan, r.loop.Next())
	}
	r.plan = plan
	return plan
}

// runEpoch distributes the plan's batches round-robin across the shard
// deques and runs W workers until every batch is claimed and executed.
// Shards fill disjoint digest slots, so the workers share nothing
// mutable but the deques themselves.
func (r *runner) runEpoch(ctx context.Context, plan []*core.Entry, epochStart int) {
	for i := range plan[:min(len(plan), len(r.digests))] {
		r.digests[i].done = false
	}
	nb := (len(plan) + r.opts.Batch - 1) / r.opts.Batch
	for _, s := range r.shards {
		if s.deque == nil || len(s.deque.buf) < nb {
			s.deque = NewDeque(nb)
		} else {
			s.deque.reset()
		}
	}
	for b := 0; b < nb; b++ {
		r.shards[b%len(r.shards)].deque.Push(b)
	}
	var wg sync.WaitGroup
	for _, s := range r.shards {
		wg.Add(1)
		go func(s *shardState) {
			defer wg.Done()
			r.work(ctx, s, plan, epochStart)
		}(s)
	}
	wg.Wait()
}

// work is one shard's epoch loop: pop from the own deque, steal when it
// runs dry, exit when no unclaimed batch remains anywhere. Claimed
// batches never reappear, so an empty sweep with zero unclaimed work is
// a permanent termination condition.
func (r *runner) work(ctx context.Context, s *shardState, plan []*core.Entry, epochStart int) {
	for {
		if ctx.Err() != nil {
			return
		}
		b := s.deque.Pop()
		if b < 0 {
			for i := 1; i < len(r.shards) && b < 0; i++ {
				b = r.shards[(s.id+i)%len(r.shards)].deque.Steal()
			}
			if b < 0 {
				if r.unclaimed() == 0 {
					return
				}
				runtime.Gosched()
				continue
			}
			s.epochSteals++
		}
		start := time.Now()
		lo := b * r.opts.Batch
		hi := min(lo+r.opts.Batch, len(plan))
		for i := lo; i < hi; i++ {
			if !r.execOne(ctx, s, plan[i], epochStart+i, &r.digests[i]) {
				s.busy += time.Since(start)
				return
			}
			s.epochExecs++
		}
		s.busy += time.Since(start)
	}
}

// unclaimed counts batches still sitting in some deque.
func (r *runner) unclaimed() int {
	n := 0
	for _, s := range r.shards {
		n += s.deque.Len()
	}
	return n
}

// execOne runs one planned execution on shard s and records its digest.
// The RNG is reseeded from (campaign seed, global index), so mutation
// and execution seed are a pure function of the slot — not of the shard
// or of what the shard ran before. Returns false when the execution was
// abandoned to a cancelled ctx (the digest slot stays un-done).
func (r *runner) execOne(ctx context.Context, s *shardState, entry *core.Entry, gidx int, d *digest) bool {
	s.src.Seed(mixSeed(r.opts.Seed, gidx))
	mut, seed, res := s.x.Run(ctx, r.name, r.prog, &r.copts, entry, r.loop.Pool())
	defer s.x.Recycle.Reclaim(res.Trace)
	if res.Cancelled {
		return false
	}
	sum := res.Trace.Summary()
	d.shard = s.id
	d.sig = sum.Sig
	d.pairIDs = append(d.pairIDs[:0], sum.PairIDs...)
	d.eventIDs = append(d.eventIDs[:0], sum.EventIDs...)
	d.mut = mut
	d.seed = seed
	d.failure = res.Failure
	d.decisions = nil
	if res.Failure != nil {
		d.decisions = res.Trace.ThreadOrder()
	}
	if !r.opts.DisableProactive {
		s.epochSatisfied += int64(s.x.Sched.SatisfiedCount())
		s.epochRejected += int64(s.x.Sched.RejectedCount())
	}
	d.done = true
	return true
}

// mergeEpoch is the barrier: remap each digest's shard-local event and
// pair IDs into the campaign table and fold it into the loop, in global
// execution order, so feedback, event pool, failures and corpus see
// exactly what they would have seen sequentially. The fold runs on the
// coordinator alone and its order is the plan order. Returns true when
// the epoch was interrupted (some digest never executed); everything
// before the gap is already merged.
func (r *runner) mergeEpoch(plan []*core.Entry, epoch int) (interrupted bool) {
	start := time.Now()
	sum := &r.sum
	sum.Table = r.loop.Intern()
	for i := range plan {
		d := &r.digests[i]
		if !d.done {
			interrupted = true
			break
		}
		rm := r.shards[d.shard].remap
		sum.Sig = d.sig
		sum.PairIDs = sum.PairIDs[:0]
		for _, pid := range d.pairIDs {
			sum.PairIDs = append(sum.PairIDs, rm.RemapPair(pid))
		}
		sum.EventIDs, sum.Events = sum.EventIDs[:0], sum.Events[:0]
		for _, id := range d.eventIDs {
			gid := rm.Remap(id)
			sum.EventIDs = append(sum.EventIDs, gid)
			sum.Events = append(sum.Events, sum.Table.Event(gid))
		}
		if d.failure != nil && r.opts.FailureObserver != nil {
			r.opts.FailureObserver(&exec.Result{
				Program: r.name,
				Seed:    d.seed,
				Trace:   &exec.Trace{Decisions: d.decisions},
				Failure: d.failure,
			})
		}
		r.loop.Fold(plan[i], d.mut, d.seed, sum, d.failure, d)
		if r.loop.Done() {
			// Deterministic truncation: executions planned after the first
			// bug are discarded un-merged, whichever shard ran them.
			break
		}
	}
	if t := r.tel; t != nil {
		for _, s := range r.shards {
			if s.epochExecs > 0 {
				t.Add(telemetry.MShardExecs, s.epochExecs, s.labels...)
			}
			if s.epochSteals > 0 {
				t.Add(telemetry.MShardSteals, s.epochSteals, s.labels...)
			}
			if s.epochSatisfied > 0 {
				t.Add(telemetry.MConstraintSatisfied, s.epochSatisfied, r.labels...)
			}
			if s.epochRejected > 0 {
				t.Add(telemetry.MConstraintRejected, s.epochRejected, r.labels...)
			}
			s.epochExecs, s.epochSteals, s.epochSatisfied, s.epochRejected = 0, 0, 0, 0
		}
		t.Observe(telemetry.MShardMergeNS, time.Since(start).Nanoseconds(), r.labels...)
		t.Emit(telemetry.EvEpochMerge, telemetry.Fields{
			"program":     r.name,
			"epoch":       epoch,
			"executions":  r.loop.Executions(),
			"corpus_size": r.loop.CorpusLen(),
		})
	}
	return interrupted
}

// finish finalizes the loop's report and publishes the utilization
// gauge.
func (r *runner) finish() *core.Report {
	rep := r.loop.Finish()
	if t := r.tel; t != nil {
		wall := time.Since(r.start)
		if wall > 0 {
			var busy time.Duration
			for _, s := range r.shards {
				busy += s.busy
			}
			pct := int64(busy * 100 / (wall * time.Duration(len(r.shards))))
			t.Set(telemetry.MShardUtilization, min(pct, 100), r.labels...)
		}
	}
	return rep
}
