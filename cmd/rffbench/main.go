// Command rffbench regenerates the paper's evaluation artifacts:
//
//	rffbench table-b  [-trials 5] [-budget 2000]      # Appendix B table (E2)
//	rffbench fig4     [-trials 5] [-budget 2000]      # Figure 4 curves (E1)
//	rffbench fig5     [-n 10000] [-prog SafeStack]    # Figure 5 histograms (E3, E6)
//	rffbench rq1      [-trials 5] [-budget 2000]      # bugs-found comparison + Mann-Whitney
//	rffbench rq2      [-trials 5] [-budget 2000]      # RFF vs POS ablation + log-rank wins
//	rffbench rq4      [-trials 5] [-budget 2000]      # Q-Learning-RF comparison
//	rffbench classes  -prog CS/reorder_3 [-budget N]  # E8 rf-class reduction
//	rffbench conformance [-programs 50] [-seed 1] [-tools ...]  # differential conformance
//	rffbench sched-eval  [-programs 12] [-seeds 1,2,3] [-policies uniform,ucb,...]  # adaptive budget policy evaluation
//	rffbench perf     [-budget 2000] [-out BENCH_perf.json]  # hot-path throughput
//	rffbench triage   -in DIR | -store DIR | -progen-seed S  # cluster crashes into a regression corpus
//
// Matrix commands decompose into (tool, program, trial) cells and run on
// a fleet worker pool: `-workers N` bounds the pool (default GOMAXPROCS)
// and results are bit-identical at any worker count. table-b/fig4/rq1/all
// take `-tools SPEC[,SPEC...]` — strategy specs resolved through the
// internal/strategy registry (see `rff tools`), defaulting to the paper's
// panel. They also take `-json summary.json` (machine-readable per-cell
// summary, for tracking benchmark trajectories across PRs) and
// `-metrics out.json` (telemetry snapshot of the run). Every command
// takes `-cpuprofile FILE` / `-memprofile FILE` to capture pprof
// profiles of the run.
//
// Budgets default to laptop-scale settings; raise -trials/-budget toward
// the paper's 20 trials for tighter statistics (see EXPERIMENTS.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/campaign"
	"rff/internal/fleet"
	"rff/internal/perf"
	"rff/internal/report"
	"rff/internal/stats"
	"rff/internal/strategy"
	"rff/internal/systematic"
	"rff/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "table-b":
		cmdMatrix(args, renderTableB)
	case "fig4":
		cmdMatrix(args, renderFig4)
	case "rq1":
		cmdMatrix(args, renderRQ1)
	case "all":
		cmdMatrix(args, func(m *campaign.MatrixResult) {
			renderTableB(m)
			fmt.Println()
			renderFig4(m)
			fmt.Println()
			renderRQ1(m)
		})
	case "rq2":
		cmdRQ2(args)
	case "rq4":
		cmdRQ4(args)
	case "fig5":
		cmdFig5(args)
	case "conformance":
		cmdConformance(args)
	case "sched-eval":
		cmdSchedEval(args)
	case "classes":
		cmdClasses(args)
	case "perf":
		cmdPerf(args)
	case "triage":
		cmdTriage(args)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rffbench <table-b|fig4|fig5|rq1|rq2|rq4|classes|conformance|sched-eval|perf|triage> [flags]")
}

// profileFlags holds the pprof flags every subcommand accepts.
type profileFlags struct {
	cpu, mem string
}

func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	pf := &profileFlags{}
	fs.StringVar(&pf.cpu, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&pf.mem, "memprofile", "", "write a pprof heap profile to this file at exit")
	return pf
}

// start begins CPU profiling; the returned stop ends it and writes the
// heap profile. Profile errors are fatal up front — a requested profile
// that cannot be opened should not surface only after a long run.
func (pf *profileFlags) start() (stop func()) {
	stopCPU, err := perf.StartCPUProfile(pf.cpu)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rffbench: %v\n", err)
		os.Exit(1)
	}
	return func() {
		stopCPU()
		if err := perf.WriteHeapProfile(pf.mem); err != nil {
			fmt.Fprintf(os.Stderr, "rffbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// matrixFlags holds the common evaluation-matrix flags.
type matrixFlags struct {
	trials       int
	budget       int
	maxSteps     int
	seed         int64
	workers      int
	suite        string
	progs        string
	quiet        bool
	jsonPath     string
	metricsPath  string
	budgetPolicy string
	budgetEpochs int
	prof         *profileFlags
}

func addMatrixFlags(fs *flag.FlagSet) *matrixFlags {
	mf := &matrixFlags{prof: addProfileFlags(fs)}
	fs.IntVar(&mf.trials, "trials", 5, "trials per (tool, program); the paper uses 20")
	fs.IntVar(&mf.budget, "budget", 2000, "schedule budget per trial")
	fs.IntVar(&mf.maxSteps, "maxsteps", 5000, "per-execution step budget")
	fs.Int64Var(&mf.seed, "seed", 1, "base seed")
	fs.IntVar(&mf.workers, "workers", 0, "concurrent fleet workers; results are identical at any count (0 = GOMAXPROCS)")
	fs.StringVar(&mf.suite, "suite", "", "restrict to one suite (CS, Chess, ConVul, ...)")
	fs.StringVar(&mf.progs, "progs", "", "comma-separated program list (default: all)")
	fs.BoolVar(&mf.quiet, "q", false, "suppress progress output")
	fs.StringVar(&mf.jsonPath, "json", "", "write the experiment summary as machine-readable JSON to this file")
	fs.StringVar(&mf.metricsPath, "metrics", "", "write a JSON telemetry snapshot to this file")
	fs.StringVar(&mf.budgetPolicy, "budget-policy", "",
		fmt.Sprintf("adaptive budget policy reallocating the matrix pool across (tool, program) cells at epoch barriers (%s; empty = fixed per-cell budgets)", strings.Join(budget.Policies(), "|")))
	fs.IntVar(&mf.budgetEpochs, "budget-epochs", budget.DefaultEpochs, "allocation epochs under -budget-policy")
	return mf
}

// budgeter maps the -budget-policy flags onto a strategy.Config field,
// validating up front so a typo fails before the run starts.
func (mf *matrixFlags) budgeter() *budget.Config {
	if mf.budgetPolicy == "" {
		return nil
	}
	cfg := &budget.Config{Policy: mf.budgetPolicy, Epochs: mf.budgetEpochs}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "rffbench: %v\n", err)
		os.Exit(2)
	}
	return cfg
}

func (mf *matrixFlags) programs() []bench.Program {
	if mf.progs != "" {
		var out []bench.Program
		for _, n := range strings.Split(mf.progs, ",") {
			out = append(out, bench.MustGet(strings.TrimSpace(n)))
		}
		return out
	}
	if mf.suite != "" {
		return bench.BySuite(mf.suite)
	}
	// The default matrix is the paper's subject set; the Extras suite is
	// opt-in via -suite Extras.
	var out []bench.Program
	for _, p := range bench.All() {
		if p.Suite != "Extras" {
			out = append(out, p)
		}
	}
	return out
}

func (mf *matrixFlags) run(specs []string) *campaign.MatrixResult {
	progress := func(done, total int) {
		if !mf.quiet && (done%25 == 0 || done == total) {
			fmt.Fprintf(os.Stderr, "\r%d/%d trials", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	var hub *telemetry.Hub
	var sink telemetry.Sink
	if mf.metricsPath != "" {
		hub = telemetry.NewHub()
		sink = hub
	}
	stopProf := mf.prof.start()
	start := time.Now()
	// The registry threads the sink into every resolved tool exactly
	// once, so the snapshot carries engine/fuzzer series without any
	// per-tool retrofitting here.
	m, err := strategy.RunMatrix(context.Background(), specs, mf.programs(), strategy.Config{
		Telemetry: sink,
		Trials:    mf.trials,
		Budget:    mf.budget,
		MaxSteps:  mf.maxSteps,
		BaseSeed:  mf.seed,
		Workers:   mf.workers,
		Progress:  progress,
		Budgeter:  mf.budgeter(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rffbench: %v\n", err)
		os.Exit(1)
	}
	stopProf()
	if !mf.quiet {
		fmt.Fprintf(os.Stderr, "matrix completed in %v\n", time.Since(start).Round(time.Millisecond))
		if br := m.BudgetReport; br != nil {
			fmt.Fprintf(os.Stderr, "budget policy %s: %d epochs, %d/%d executions spent, %d reallocations\n",
				br.Policy, br.Epochs, br.Spent, br.Pool, br.Reallocations)
		}
	}
	if errs := m.TrialErrors(); len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d trials aborted with errors:\n", len(errs))
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "  %s\n", e)
		}
	}
	if hub != nil {
		if err := writeMetrics(mf.metricsPath, hub); err != nil {
			fmt.Fprintf(os.Stderr, "rffbench: %v\n", err)
			os.Exit(1)
		}
	}
	if mf.jsonPath != "" {
		if err := writeSummaryJSON(mf.jsonPath, m); err != nil {
			fmt.Fprintf(os.Stderr, "rffbench: %v\n", err)
			os.Exit(1)
		}
	}
	return m
}

// writeMetrics persists a hub's snapshot as indented JSON.
func writeMetrics(path string, hub *telemetry.Hub) error {
	data, err := hub.Snapshot().MarshalJSONIndent()
	if err != nil {
		return fmt.Errorf("marshaling metrics snapshot: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cellSummary is one (tool, program) cell of the JSON experiment summary.
type cellSummary struct {
	Tool    string `json:"tool"`
	Program string `json:"program"`
	Trials  int    `json:"trials"`
	// Found is how many trials exposed the bug.
	Found int `json:"found"`
	// MeanSchedulesToBug/StdSchedulesToBug summarize the bug-finding
	// trials only (0 when the bug was never found).
	MeanSchedulesToBug float64 `json:"mean_schedules_to_bug"`
	StdSchedulesToBug  float64 `json:"std_schedules_to_bug"`
	// Errors counts trials aborted by infrastructure failures.
	Errors int `json:"errors,omitempty"`
}

// matrixSummary is the machine-readable form of an evaluation matrix —
// the per-PR benchmark trajectory record behind `-json`.
type matrixSummary struct {
	Budget   int      `json:"budget"`
	Trials   int      `json:"trials"`
	Tools    []string `json:"tools"`
	Programs []string `json:"programs"`
	// BugsFoundMean is the mean number of programs each tool found a
	// bug in, over its trials (the RQ1 headline number).
	BugsFoundMean map[string]float64 `json:"bugs_found_mean"`
	Cells         []cellSummary      `json:"cells"`
}

func writeSummaryJSON(path string, m *campaign.MatrixResult) error {
	s := matrixSummary{
		Budget:        m.Budget,
		Trials:        0,
		Tools:         m.Tools,
		Programs:      m.Programs,
		BugsFoundMean: make(map[string]float64, len(m.Tools)),
	}
	for _, tool := range m.Tools {
		s.BugsFoundMean[tool] = stats.Mean(m.BugsFoundPerTrial(tool))
		for _, p := range m.Programs {
			outs := m.Outcomes[tool][p]
			if len(outs) > s.Trials {
				s.Trials = len(outs)
			}
			cell := cellSummary{Tool: tool, Program: p, Trials: len(outs)}
			for _, o := range outs {
				if o.Found() {
					cell.Found++
				}
				if o.Errored() {
					cell.Errors++
				}
			}
			mean, std, _ := m.MeanStd(tool, p)
			if cell.Found > 0 {
				cell.MeanSchedulesToBug, cell.StdSchedulesToBug = mean, std
			}
			s.Cells = append(s.Cells, cell)
		}
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("marshaling summary: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func cmdMatrix(args []string, render func(*campaign.MatrixResult)) {
	fs := flag.NewFlagSet("matrix", flag.ExitOnError)
	mf := addMatrixFlags(fs)
	toolsFlag := fs.String("tools", strings.Join(strategy.DefaultSpecs(), ","),
		"comma-separated strategy specs (see `rff tools`)")
	fs.Parse(args)
	specs, err := strategy.ParseSpecs(*toolsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rffbench: %v\n", err)
		os.Exit(2)
	}
	render(mf.run(specs))
}

func renderTableB(m *campaign.MatrixResult) {
	fmt.Println("Mean Number of Schedules to 1st Bug (Appendix B reproduction)")
	fmt.Println("(\"-\" = bug never found; \"*\" = missed in at least one trial)")
	fmt.Println()
	fmt.Print(report.AppendixB(m))
	fmt.Println()
	fmt.Println("Side-by-side with the paper's Appendix B:")
	fmt.Println()
	fmt.Print(report.AppendixBVsPaper(m))
	fmt.Println()
	fmt.Println("Shape checks:")
	fmt.Print(report.ShapeChecks(m))
}

func renderFig4(m *campaign.MatrixResult) {
	tools := []string{"RFF", "POS", "PCT3", "PERIOD*", "QLearning-RF"}
	tools = intersect(tools, m.Tools)
	fmt.Println("Figure 4: Total Bugs Discovered After Log(# Schedules) Across All Trials")
	fmt.Println()
	fmt.Print(report.Fig4ASCII(m, tools))
	fmt.Println()
	fmt.Println("CSV data:")
	fmt.Print(report.Fig4CSV(m, tools))
}

func renderRQ1(m *campaign.MatrixResult) {
	fmt.Println("RQ1: bugs found per trial (mean over trials) and pairwise significance")
	fmt.Println()
	for _, tool := range m.Tools {
		counts := m.BugsFoundPerTrial(tool)
		fmt.Printf("  %-14s mean bugs found: %5.1f / %d programs\n",
			tool, stats.Mean(counts), len(m.Programs))
	}
	fmt.Println()
	rff := m.BugsFoundPerTrial("RFF")
	for _, tool := range m.Tools {
		if tool == "RFF" || tool == "GenMC*" {
			continue
		}
		_, p := stats.MannWhitneyU(rff, m.BugsFoundPerTrial(tool))
		fmt.Printf("  Mann-Whitney U (RFF vs %s): p = %.4g\n", tool, p)
	}
	for _, other := range []string{"PERIOD*", "POS"} {
		aw, bw := m.SignificantWins("RFF", other, 0.05)
		fmt.Printf("  log-rank: RFF significantly fewer schedules than %s on %d/%d programs; "+
			"%s better on %d\n", other, aw, len(m.Programs), other, bw)
	}
}

func cmdRQ2(args []string) {
	fs := flag.NewFlagSet("rq2", flag.ExitOnError)
	mf := addMatrixFlags(fs)
	fs.Parse(args)
	m := mf.run([]string{"rff", "pos"})
	fmt.Println("RQ2: contribution of the abstract schedule (RFF vs its POS fallback)")
	fmt.Println()
	fmt.Printf("  RFF mean bugs found: %.1f\n", stats.Mean(m.BugsFoundPerTrial("RFF")))
	fmt.Printf("  POS mean bugs found: %.1f\n", stats.Mean(m.BugsFoundPerTrial("POS")))
	aw, bw := m.SignificantWins("RFF", "POS", 0.05)
	fmt.Printf("  RFF significantly fewer schedules on %d/%d programs (log-rank, p<0.05)\n",
		aw, len(m.Programs))
	fmt.Printf("  POS significantly fewer schedules on %d/%d programs\n", bw, len(m.Programs))
	fmt.Println()
	fmt.Print(report.AppendixB(m))
}

func cmdRQ4(args []string) {
	fs := flag.NewFlagSet("rq4", flag.ExitOnError)
	mf := addMatrixFlags(fs)
	fs.Parse(args)
	m := mf.run([]string{"rff", "qlearn"})
	fmt.Println("RQ4: greybox fuzzing vs Q-Learning over the same reads-from information")
	fmt.Println()
	fmt.Printf("  RFF          mean bugs found: %.1f\n", stats.Mean(m.BugsFoundPerTrial("RFF")))
	fmt.Printf("  QLearning-RF mean bugs found: %.1f\n", stats.Mean(m.BugsFoundPerTrial("QLearning-RF")))
	aw, _ := m.SignificantWins("RFF", "QLearning-RF", 0.05)
	fmt.Printf("  RFF significantly fewer schedules on %d/%d programs\n", aw, len(m.Programs))
	// One-shot successes: programs where the first schedule of trial 0 hit the bug.
	oneShot := func(tool string) int {
		n := 0
		for _, p := range m.Programs {
			outs := m.Outcomes[tool][p]
			if len(outs) > 0 && outs[0].FirstBug == 1 {
				n++
			}
		}
		return n
	}
	fmt.Printf("  first-schedule successes: RFF %d, QLearning-RF %d\n",
		oneShot("RFF"), oneShot("QLearning-RF"))
}

func cmdFig5(args []string) {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	n := fs.Int("n", 10000, "schedules per configuration (paper: 10000)")
	prog := fs.String("prog", "SafeStack", "program to profile")
	seed := fs.Int64("seed", 1, "seed")
	maxSteps := fs.Int("maxsteps", 5000, "per-execution step budget")
	bars := fs.Int("bars", 40, "bars to draw")
	csv := fs.Bool("csv", false, "emit CSV instead of ASCII bars")
	nofb := fs.Bool("nofeedback", false, "profile RFF without greybox feedback instead of POS (RQ3 ablation)")
	workers := fs.Int("workers", 0, "profile the two configurations concurrently (0 = GOMAXPROCS)")
	pf := addProfileFlags(fs)
	fs.Parse(args)
	p := bench.MustGet(*prog)
	defer pf.start()()

	// The two configurations are independent fixed-seed profiles — ideal
	// fleet cells: identical output at any worker count, half the
	// wall-clock with two cores.
	cells := []fleet.Cell[*campaign.Distribution]{
		{ID: "fig5/top", Run: func(context.Context, *fleet.Scratch) (*campaign.Distribution, error) {
			if *nofb {
				return campaign.RFDistributionRFF(p, *n, *seed, *maxSteps, false), nil
			}
			return campaign.RFDistributionPOS(p, *n, *seed, *maxSteps), nil
		}},
		{ID: "fig5/bottom", Run: func(context.Context, *fleet.Scratch) (*campaign.Distribution, error) {
			return campaign.RFDistributionRFF(p, *n, *seed, *maxSteps, true), nil
		}},
	}
	results := fleet.Run(context.Background(), cells, fleet.Options{Workers: *workers})
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "rffbench: %s: %v\n%s", r.Cell, r.Err, r.Stack)
			os.Exit(1)
		}
	}
	top, bottom := results[0].Value, results[1].Value

	fmt.Printf("Figure 5: reads-from combination frequencies on %s (%d schedules)\n\n", p.Name, *n)
	if *csv {
		fmt.Print(report.Fig5CSV(top))
		fmt.Print(report.Fig5CSV(bottom))
		return
	}
	fmt.Print(report.Fig5ASCII(top, *bars))
	fmt.Println()
	fmt.Print(report.Fig5ASCII(bottom, *bars))
}

func cmdClasses(args []string) {
	fs := flag.NewFlagSet("classes", flag.ExitOnError)
	prog := fs.String("prog", "Extras/reorder_2", "program to enumerate")
	budget := fs.Int("budget", 500000, "max schedules")
	pf := addProfileFlags(fs)
	fs.Parse(args)
	p := bench.MustGet(*prog)
	defer pf.start()()
	rep := systematic.Explore(p.Name, p.Body, systematic.ExploreOptions{MaxExecutions: *budget})
	fmt.Printf("E8: %s — %d schedules enumerated", p.Name, rep.Executions)
	if rep.Complete {
		fmt.Print(" (complete)")
	} else {
		fmt.Print(" (budget exhausted)")
	}
	fmt.Printf(", %d reads-from equivalence classes\n", rep.Classes)
	if rep.Executions > 0 {
		fmt.Printf("reduction factor: %.0fx\n", float64(rep.Executions)/float64(max(rep.Classes, 1)))
	}
}

// cmdPerf runs the hot-path throughput harness: one full fuzzing campaign
// per program, reporting execs/sec and allocations per execution, plus the
// fleet matrix-scaling record (wall-clock and speedup at several worker
// counts on a table-b smoke subset), persisted as BENCH_perf.json for
// cross-PR comparison.
func cmdPerf(args []string) {
	fs := flag.NewFlagSet("perf", flag.ExitOnError)
	progs := fs.String("progs", strings.Join(perf.DefaultPrograms, ","),
		"comma-separated programs to measure")
	budget := fs.Int("budget", 2000, "schedules per program")
	maxSteps := fs.Int("maxsteps", 5000, "per-execution step budget")
	seed := fs.Int64("seed", 1, "campaign seed")
	out := fs.String("out", "BENCH_perf.json", "output JSON file (empty = stdout only)")
	matrix := fs.Bool("matrix", true, "also measure matrix wall-clock scaling across fleet worker counts")
	matrixWorkers := fs.String("matrix-workers", "1,2,4,8", "comma-separated worker counts (first is the speedup baseline)")
	matrixTrials := fs.Int("matrix-trials", 2, "trials per cell of the scaling matrix")
	matrixBudget := fs.Int("matrix-budget", 300, "schedule budget per trial of the scaling matrix")
	shardCounts := fs.String("shards", "1,2,4", "comma-separated shard counts for single-campaign shard scaling (first is the speedup baseline; empty = skip)")
	shardProgs := fs.String("shard-progs", "CS/twostage_20", "comma-separated programs for the shard-scaling curves")
	shardBudget := fs.Int("shard-budget", 4000, "schedule budget per shard-scaling campaign")
	shardAssert := fs.Float64("shard-assert-speedup", 0, "fail unless some program reaches this execs/sec speedup at the highest shard count (0 = no assert; skipped on 1 CPU)")
	pf := addProfileFlags(fs)
	fs.Parse(args)

	var ps []bench.Program
	for _, n := range strings.Split(*progs, ",") {
		ps = append(ps, bench.MustGet(strings.TrimSpace(n)))
	}
	stopProf := pf.start()
	rep := perf.Run(ps, *budget, *maxSteps, *seed)
	if *matrix {
		var counts []int
		for _, w := range strings.Split(*matrixWorkers, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(w))
			if err != nil || c <= 0 {
				fmt.Fprintf(os.Stderr, "rffbench: bad -matrix-workers entry %q\n", w)
				os.Exit(2)
			}
			counts = append(counts, c)
		}
		// The scaling workload is the table-b smoke subset: the full
		// tool lineup on the throughput programs, at a budget small
		// enough to iterate on.
		tools, err := strategy.ResolveAll(strategy.DefaultSpecs(), strategy.Config{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rffbench: %v\n", err)
			os.Exit(1)
		}
		rep.Matrix = perf.MeasureMatrix(tools, ps,
			*matrixTrials, *matrixBudget, *maxSteps, *seed, counts)
	}
	if *shardCounts != "" {
		var counts []int
		for _, w := range strings.Split(*shardCounts, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(w))
			if err != nil || c <= 0 {
				fmt.Fprintf(os.Stderr, "rffbench: bad -shards entry %q\n", w)
				os.Exit(2)
			}
			counts = append(counts, c)
		}
		for _, n := range strings.Split(*shardProgs, ",") {
			p := bench.MustGet(strings.TrimSpace(n))
			rep.Shards = append(rep.Shards,
				perf.MeasureShards(p, *shardBudget, *maxSteps, *seed, counts))
		}
	}
	stopProf()

	fmt.Printf("hot-path throughput (%d schedules each, seed %d):\n", *budget, *seed)
	for _, r := range rep.Programs {
		fmt.Printf("  %-20s %9.0f execs/sec  %7.1f allocs/exec  %9.0f B/exec\n",
			r.Program, r.ExecsPerSec, r.AllocsPerExec, r.BytesPerExec)
	}
	if m := rep.Matrix; m != nil {
		fmt.Printf("matrix scaling (%d tools x %d programs x %d trials, budget %d):\n",
			len(m.Tools), len(m.Programs), m.Trials, m.Budget)
		for _, pt := range m.Points {
			fmt.Printf("  %2d workers  %8.2fs  %5.2fx\n",
				pt.Workers, float64(pt.WallNS)/1e9, pt.Speedup)
		}
		if !m.ResultsIdentical {
			fmt.Fprintln(os.Stderr, "rffbench: WARNING: matrix results diverged across worker counts")
			os.Exit(1)
		}
		fmt.Println("  results bit-identical at every worker count")
	}
	bestSpeedup := 0.0
	for _, sc := range rep.Shards {
		fmt.Printf("shard scaling: %s (budget %d, %d CPUs):\n", sc.Program, sc.Budget, sc.NumCPU)
		for _, pt := range sc.Points {
			fmt.Printf("  %2d shards  %9.0f execs/sec  %5.2fx  %7.1f allocs/exec\n",
				pt.Shards, pt.ExecsPerSec, pt.Speedup, pt.AllocsPerExec)
		}
		if !sc.ResultsIdentical {
			fmt.Fprintf(os.Stderr, "rffbench: WARNING: %s reports diverged across shard counts\n", sc.Program)
			os.Exit(1)
		}
		fmt.Println("  reports bit-identical at every shard count")
		if n := len(sc.Points); n > 0 && sc.Points[n-1].Speedup > bestSpeedup {
			bestSpeedup = sc.Points[n-1].Speedup
		}
	}
	if *shardAssert > 0 && len(rep.Shards) > 0 {
		if runtime.NumCPU() == 1 {
			fmt.Println("shard speedup assert skipped: 1 CPU (scaling is not expected)")
		} else if bestSpeedup < *shardAssert {
			fmt.Fprintf(os.Stderr, "rffbench: shard scaling below target: best %.2fx at the highest shard count, want >= %.2fx\n",
				bestSpeedup, *shardAssert)
			os.Exit(1)
		} else {
			fmt.Printf("shard speedup assert passed: %.2fx >= %.2fx\n", bestSpeedup, *shardAssert)
		}
	}
	if *out != "" {
		if err := rep.WriteJSON(*out); err != nil {
			fmt.Fprintf(os.Stderr, "rffbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func intersect(want, have []string) []string {
	set := make(map[string]bool, len(have))
	for _, h := range have {
		set[h] = true
	}
	var out []string
	for _, w := range want {
		if set[w] {
			out = append(out, w)
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
