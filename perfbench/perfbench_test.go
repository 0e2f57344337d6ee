package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rff/internal/bench"
	"rff/internal/campaign"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/service"
	"rff/internal/strategy"
)

func smallConfig(t *testing.T, trace bool) config {
	return config{seed: 1, seconds: 0.2, trace: trace, out: t.TempDir(), workers: 2, small: true}
}

// TestWorkloadsSmall runs every workload at small size, untraced and
// traced, through the same reporting path as the command.
func TestWorkloadsSmall(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				cfg := smallConfig(t, trace)
				res := workloads[name](cfg)
				var stdout, stderr bytes.Buffer
				if code := report(&stdout, &stderr, name, cfg, res); code != 0 {
					t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(out.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := out.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
					}
					if !trace && m.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", d.name)
					}
				}
			})
		}
	}
}

// firstFailure fuzzes a buggy program until it records a failure.
func firstFailure(t *testing.T, prog string) (exec.Program, core.FailureRecord) {
	t.Helper()
	bp := bench.MustGet(prog)
	rep := core.NewFuzzer(bp.Name, bp.Body, core.Options{Budget: 500, Seed: 3, StopAtFirstBug: true}).Run()
	if len(rep.Failures) == 0 {
		t.Fatalf("%s: no failure in 500 schedules", prog)
	}
	return bp.Body, rep.Failures[0]
}

func TestReplayCheck(t *testing.T) {
	body, fr := firstFailure(t, "CS/reorder_10")
	if errs := replayFailures("CS/reorder_10", body, []core.FailureRecord{fr}); len(errs) != 0 {
		t.Fatalf("untampered decisions: %v", errs)
	}
	tampered := fr
	tampered.Decisions = nil
	if errs := replayFailures("CS/reorder_10", body, []core.FailureRecord{tampered}); len(errs) != 1 {
		t.Fatalf("tampered decision list passed the replay check")
	}
}

func TestCachedReportCheck(t *testing.T) {
	req := service.CampaignRequest{Program: "CS/account", Tools: []string{"rff"}, Budget: 10, Trials: 1, Seed: 5}
	fresh := []byte(`{"bugs_found":1,"outcomes":{"RFF":{"CS/account":[{"FirstBug":2,"Executions":2}]}}}`)
	job := func(cached bool, report []byte) *jobRun {
		return &jobRun{req: serviceRequest{req: req, cached: cached}, id: "job", cacheHit: cached, state: string(service.JobDone), report: report}
	}
	chk := &serviceChecker{fresh: map[string][]byte{}}
	res := newResult()
	execs, bugs := chk.check(res, []*jobRun{job(false, fresh), job(true, fresh)})
	if !res.correct() || execs != 2 || bugs != 1 {
		t.Fatalf("matching cached report: checks %v, execs %d, bugs %d", res.checks, execs, bugs)
	}
	mismatched := bytes.Replace(fresh, []byte(`"Executions":2`), []byte(`"Executions":3`), 1)
	chk.check(res, []*jobRun{job(true, mismatched)})
	if res.correct() || res.failed != 1 {
		t.Fatalf("mismatched cached report passed: failed=%d", res.failed)
	}
}

func TestTracedLoopMatchesFuzzer(t *testing.T) {
	bp := bench.MustGet("CS/twostage_20")
	opts := core.Options{Budget: 300, Seed: 9}
	want := core.NewFuzzer(bp.Name, bp.Body, opts).Run()
	var st loopStats
	got := tracedFuzz(newTracer("test"), &st, bp.Name, bp.Body, opts)
	if err := compareReports(want, got); err != nil {
		t.Fatalf("traced loop differs from core.Fuzzer: %v", err)
	}
	if st.execs != 300 {
		t.Fatalf("traced loop counted %d executions, want 300", st.execs)
	}

	// A loop that strays from Algorithm 1 — here, a different power
	// schedule cap — must fail the equality check.
	perturbed := opts
	perturbed.Power.MaxEnergy = 3
	got = tracedFuzz(newTracer("test"), &loopStats{}, bp.Name, bp.Body, perturbed)
	if err := compareReports(want, got); err == nil {
		t.Fatal("perturbed traced loop passed the equality check")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer("test")
	tr.begin("outer")
	tr.begin("inner")
	tr.end()
	tr.child("leaf", 4, 4000)
	tr.end()
	if tr.count("outer") != 1 || tr.count("inner") != 1 || tr.count("leaf") != 4 {
		t.Fatalf("counts: outer %d inner %d leaf %d", tr.count("outer"), tr.count("inner"), tr.count("leaf"))
	}
	outer := tr.agg["outer"]
	if outer.self >= outer.total-4000 {
		t.Fatalf("outer self %d ns not reduced by its children (total %d)", outer.self, outer.total)
	}
	if len(tr.spans) != 2 || tr.spans[0].Parent != tr.spans[1].ID {
		t.Fatalf("spans %+v: inner must name outer as parent", tr.spans)
	}
}

// TestSpanCoverage checks that time under the root span that no layer
// span covers lowers coverage, and that the benchmark's own spans do
// not count for or against it.
func TestSpanCoverage(t *testing.T) {
	run := func(glue, probe time.Duration) float64 {
		tr := newTracer("test")
		t0 := time.Now()
		tr.begin("core.fuzz")
		for i := 0; i < 5; i++ {
			tr.begin("exec.run")
			time.Sleep(2 * time.Millisecond)
			tr.end()
			tr.begin("bench.memprobe")
			time.Sleep(probe)
			tr.end()
			time.Sleep(glue)
		}
		tr.end()
		return tr.coverage("core.fuzz", float64(time.Since(t0).Nanoseconds()))
	}
	if c := run(0, 2*time.Millisecond); c < 90 {
		t.Errorf("spans covering the loop, with bench spans between: coverage %.1f%%, want about 100%%", c)
	}
	if c := run(2*time.Millisecond, 0); c > 60 {
		t.Errorf("half the loop uninstrumented: coverage %.1f%%, want about 50%%", c)
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	l := summarize(xs)
	if l.tailPct != 99 || l.tail != 990 || l.beyond != 10 {
		t.Fatalf("1000 samples: tail p%g = %g with %d beyond, want p99 = 990 with 10", l.tailPct, l.tail, l.beyond)
	}
	if l = summarizeUpTo(xs, 90); l.tailPct != 90 {
		t.Fatalf("capped tail is p%g, want p90", l.tailPct)
	}
	if l = summarize(xs[:15]); l.tailPct != 50 {
		t.Fatalf("15 samples: tail is p%g, want p50", l.tailPct)
	}
}

// TestPerExecutionMedians checks that an execution preempted in one
// round keeps its usual latency.
func TestPerExecutionMedians(t *testing.T) {
	got := perExecutionMedians([][]float64{{1, 2, 9}, {1, 8, 3}, {1, 2, 3}})
	if want := []float64{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("per-execution medians %v, want %v", got, want)
	}
}

func TestFailedCheckPrintsNoMetrics(t *testing.T) {
	res := newResult()
	res.attempted = 3
	res.set("setup_s", "s", 1)
	res.fail("broken")
	var stdout, stderr bytes.Buffer
	if code := report(&stdout, &stderr, "campaign", config{}, res); code == 0 {
		t.Fatal("a failed check exited 0")
	}
	if strings.Contains(stdout.String(), "setup_s") {
		t.Fatalf("a failed check printed metrics: %s", stdout.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with
// the ones the command prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), printed %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the command does not run", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the command", len(spec.Workloads), len(workloads))
	}
}

// TestMatrixTakesScratchPath checks that the matrix workload's cells run
// the way strategy.RunMatrix runs them, on the fleet's per-worker
// scratch path. The matrix runner takes that path only for tool types
// it recognizes, so the workload's tools must be of exactly the types
// strategy.ResolveAll returns: a wrapper would lose the path. Its
// allocations per execution must then match strategy.RunMatrix's.
func TestMatrixTakesScratchPath(t *testing.T) {
	cfg := config{seed: 1, workers: 1, small: true}
	s := newMatrixSetup(cfg)
	specs := strategy.DefaultSpecs()
	ref, err := strategy.ResolveAll(specs, strategy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, tl := range s.tools {
		if got, want := reflect.TypeOf(tl), reflect.TypeOf(ref[i]); got != want {
			t.Errorf("tool %s is a %v, strategy.ResolveAll gives a %v", specs[i], got, want)
		}
	}

	in := matrixInput{trials: 2, budget: 50}
	for _, n := range matrixPrograms {
		in.programs = append(in.programs, bench.MustGet(n))
	}
	ctx := context.Background()
	allocsPerExec := func(run func() *campaign.MatrixResult) float64 {
		run() // warm up
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		m := run()
		runtime.ReadMemStats(&m1)
		_, execs, _ := matrixCounts(m)
		return float64(m1.Mallocs-m0.Mallocs) / float64(execs)
	}
	want := allocsPerExec(func() *campaign.MatrixResult {
		m, err := strategy.RunMatrix(ctx, specs, in.programs, strategy.Config{Trials: in.trials, Budget: in.budget, BaseSeed: cfg.seed, Workers: cfg.workers})
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
	got := allocsPerExec(func() *campaign.MatrixResult { return matrixRound(ctx, s.tools, in, cfg, &cellTimes{}) })
	if math.Abs(got-want) > 0.01*want {
		t.Errorf("matrix workload allocates %.2f per execution, strategy.RunMatrix %.2f", got, want)
	}
}
