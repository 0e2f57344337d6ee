package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"rff/internal/bench"
	"rff/internal/campaign"
	"rff/internal/strategy"
	"rff/internal/telemetry"
)

// matrixPrograms is the fixed cross-suite program set. Most bugs are
// found within a few schedules, some only by some tools, and RADBench/bug5
// and Chan/prodcons by none, so cells both stop early and run to budget.
var matrixPrograms = []string{
	"CS/reorder_10",
	"CS/circular_buffer",
	"CS/wronglock",
	"CS/account",
	"Chess/WorkStealQueue",
	"ConVul-CVE-Benchmarks/CVE-2016-1972",
	"ConVul-CVE-Benchmarks/CVE-2013-1792",
	"Inspect_benchmarks/qsort_mt",
	"RADBench/bug4",
	"RADBench/bug5",
	"Splash2/lu",
	"Chan/prodcons",
	"Chan/double_close",
	"CB/pbzip2-0.9.4",
	"Extras/reorder_2",
}

// matrixSize is the matrix's trials and per-trial budget.
func matrixSize(small bool) (programs []string, trials, budget int) {
	if small {
		return matrixPrograms[:3], 1, 30
	}
	return matrixPrograms, 4, 300
}

// layerOfSpec names the layer that implements each default tool: the
// traced run's trial spans and per-tool busy time carry its name.
var layerOfSpec = map[string]string{
	"rff":    "core",
	"pos":    "sched.pos",
	"pct:3":  "sched.pct",
	"qlearn": "qlearn",
	"genmc":  "systematic.genmc",
	"period": "systematic.period",
}

// matrixInput is the resolved matrix.
type matrixInput struct {
	programs       []bench.Program
	trials, budget int
}

func matrixInputs(cfg config) matrixInput {
	names, trials, budget := matrixSize(cfg.small)
	in := matrixInput{trials: trials, budget: budget}
	for _, n := range names {
		in.programs = append(in.programs, bench.MustGet(n))
	}
	return in
}

// matrixSetup is the untraced matrix's set-up: its inputs and the
// default tools, resolved without telemetry.
type matrixSetup struct {
	in    matrixInput
	tools []campaign.Tool
}

func newMatrixSetup(cfg config) matrixSetup {
	tools, err := strategy.ResolveAll(strategy.DefaultSpecs(), strategy.Config{})
	if err != nil {
		panic(fmt.Sprintf("default specs do not resolve: %v", err))
	}
	return matrixSetup{in: matrixInputs(cfg), tools: tools}
}

// matrixRound runs the matrix once. The tools must reach
// campaign.RunMatrixContext unwrapped: the matrix runner gives a fleet
// worker's recycler only to tools it recognizes, so a wrapper would put
// every cell on a slower path than strategy.RunMatrix's.
func matrixRound(ctx context.Context, tools []campaign.Tool, in matrixInput, cfg config, sink telemetry.Sink) *campaign.MatrixResult {
	return campaign.RunMatrixContext(ctx, tools, in.programs, campaign.MatrixOptions{
		Trials:    in.trials,
		Budget:    in.budget,
		BaseSeed:  cfg.seed,
		Workers:   cfg.workers,
		Telemetry: sink,
	})
}

// matrixDigest hashes a matrix result; repeated rounds must match.
func matrixDigest(m *campaign.MatrixResult) ([32]byte, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(data), nil
}

// matrixCounts returns the executions and bug-finding cells of m.
func matrixCounts(m *campaign.MatrixResult) (cells, execs, bugs int64) {
	for _, byProg := range m.Outcomes {
		for _, outs := range byProg {
			for _, o := range outs {
				cells++
				execs += int64(o.Executions)
				if o.FirstBug > 0 {
					bugs++
				}
			}
		}
	}
	return cells, execs, bugs
}

// matrixChecker holds round 0's digest and checks every round against
// it.
type matrixChecker struct {
	digest [32]byte
	rounds int
}

func (c *matrixChecker) check(res *result, m *campaign.MatrixResult, cells int64) {
	if errs := m.TrialErrors(); len(errs) > 0 {
		res.failed += int64(len(errs))
		for _, e := range errs {
			res.fail("errored cell: %s", e)
		}
	}
	d, err := matrixDigest(m)
	if err != nil {
		res.fail("matrix result does not encode: %v", err)
		res.failed += cells
		return
	}
	if c.rounds == 0 {
		c.digest = d
	} else if d != c.digest {
		res.fail("round %d: matrix result digest differs from round 0", c.rounds)
		res.failed += cells
	}
	c.rounds++
}

// runMatrix measures the evaluation matrix: the six default tools over
// the program set, at fixed trials and budget, on nproc fleet workers.
// The resolved tools go to campaign.RunMatrixContext as they are, so
// every cell takes the fleet's per-worker scratch path, as in
// strategy.RunMatrix. Per-cell times come from the fleet's own
// fleet_cell_duration series through a sink on MatrixOptions.Telemetry
// that keeps only that series; the tools themselves get no sink.
func runMatrix(cfg config) *result {
	res := newResult()
	s, setupS := timeSetup(func() matrixSetup { return newMatrixSetup(cfg) }, nil)
	res.set("setup_s", "s", setupS)

	measureFor := cfg.seconds
	if cfg.trace {
		measureFor /= 2
	}
	deadline := time.Now().Add(time.Duration(measureFor * float64(time.Second)))
	var (
		chk   matrixChecker
		walls []float64
		rates []float64
		execs int64
		bugs  int64
		cells = &cellTimes{}
	)
	mem := startMem()
	ctx := context.Background()
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		t0 := time.Now()
		m := matrixRound(ctx, s.tools, s.in, cfg, cells)
		wall := time.Since(t0).Seconds()
		n, nExecs, b := matrixCounts(m)
		walls = append(walls, wall)
		rates = append(rates, float64(nExecs)/wall)
		execs += nExecs
		bugs = b
		res.attempted += n
		chk.check(res, m, n)
	}
	setMemory(res, mem, execs)
	l := summarize(cells.ms)
	res.set("wall_s", "s", median(walls))
	res.set("execs_per_s", "1/s", median(rates))
	res.set("op_p50_ms", "ms", l.p50)
	res.set("op_tail_ms", "ms", l.tail)
	res.set("bugs_found", "count", float64(bugs))
	res.notef("operation = one matrix cell (trial), timed by the fleet; %s; %d rounds of %d programs x %d tools, %d trials, budget %d",
		l.note("op_tail_ms"), len(walls), len(s.in.programs), len(s.tools), s.in.trials, s.in.budget)
	res.notef("bugs_found = cells that exposed the bug, per round")

	if cfg.trace {
		traceMatrix(cfg, res, s.in, &chk, median(walls))
	}
	return res
}

// traceMatrix runs the matrix with a telemetry hub behind a timing sink
// and sets the fleet, per-tool and telemetry metrics.
func traceMatrix(cfg config, res *result, in matrixInput, chk *matrixChecker, untracedWall float64) {
	t := newTracer("matrix")
	deadline := time.Now().Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	var (
		walls     []float64
		execs     int64
		calls     int64
		sinkNS    float64
		busy      = map[string]float64{}
		idle      float64
		cellsUS   []float64
		sumCellUS float64
	)
	ctx := context.Background()
	for round := 0; round < 1 || time.Now().Before(deadline); round++ {
		sink := newTimedSink()
		t.begin("campaign.matrix")
		// strategy.RunMatrix is ResolveAll plus RunMatrixContext with
		// one sink on both; calling the two directly lets the fleet's
		// per-cell durations become trial spans under the matrix span.
		specs := strategy.DefaultSpecs()
		tools, err := strategy.ResolveAll(specs, strategy.Config{Telemetry: sink})
		if err != nil {
			t.end()
			res.fail("traced matrix: %v", err)
			res.failed++
			return
		}
		layerOf := map[string]string{}
		for i, tool := range tools {
			layerOf[tool.Name()] = layerOfSpec[specs[i]]
		}
		parent := t.current()
		sink.cell = func(spec string, d time.Duration) {
			end := time.Now()
			t.record(layerOf[spec], parent, end.Add(-d), end)
		}
		t0 := time.Now()
		m := matrixRound(ctx, tools, in, cfg, sink)
		wall := time.Since(t0).Seconds()
		t.end()
		cells, n, _ := matrixCounts(m)
		chk.check(res, m, cells)
		walls = append(walls, wall)
		execs += n
		calls += sink.calls.Load()
		sinkNS += sink.nsPerCall(t.clockNS) * float64(sink.calls.Load())
		roundCell := 0.0
		for i, tool := range tools {
			for _, us := range sink.observed(telemetry.MFleetCellDuration, tool.Name()) {
				busy[layerOfSpec[specs[i]]] += float64(us) / 1e6
				roundCell += float64(us)
				cellsUS = append(cellsUS, float64(us))
			}
		}
		sumCellUS += roundCell
		idle += float64(cfg.workers)*wall - roundCell/1e6
	}
	writeSpans(res, t, cfg)
	rounds := float64(len(walls))
	for _, layer := range layerOfSpec {
		res.set(layer+".busy_s", "s", busy[layer]/rounds)
	}
	totalWall := sum(walls)
	res.set("fleet.utilization_pct", "%", ratio(sumCellUS/1e6, float64(cfg.workers)*totalWall)*100)
	res.set("fleet.idle_s", "s", idle/rounds)
	for i := range cellsUS {
		cellsUS[i] /= 1e3
	}
	l := summarize(cellsUS)
	res.set("fleet.cell_ms_p50", "ms", l.p50)
	res.set("fleet.cell_ms_tail", "ms", l.tail)
	res.set("telemetry.sink_ns_per_call", "ns", ratio(sinkNS, float64(calls)))
	res.set("telemetry.calls_per_exec", "count", ratio(float64(calls), float64(execs)))
	res.set("bench.trace_overhead_pct", "%", (ratio(median(walls), untracedWall)-1)*100)
	res.notef("traced: %d rounds; busy_s and idle_s are per round; %s", len(walls), l.note("fleet.cell_ms_tail"))
	res.notef("ratio bases: utilization = cell time / (%d workers x wall); sink_ns_per_call over %d calls; calls_per_exec over %d executions", cfg.workers, calls, execs)
}
