// Command perfbench is the repository benchmark: it runs one named
// workload against the RFF packages from a single process, checks that
// every output is correct, and prints the workload's metrics.
//
//	perfbench --workload campaign|matrix|conformance|service --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object
// carrying every end-to-end metric; with --trace 1 it carries every
// per-layer metric, measured by a traced run that times calls into each
// layer's public API from this package. Lines before the JSON are for
// people: tail percentiles with their sample counts, ratio bases, and
// the traced run's span file. A failed output check prints no metrics
// and exits 1.
//
// Run it through run.sh, which builds it from the checkout's sources.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports.
type result struct {
	attempted int64
	failed    int64
	// checks lists every output check that failed; empty means correct.
	checks  []string
	metrics map[string]metric
	// notes are human-readable lines printed before the JSON: which
	// percentile a tail metric is, sample counts, ratio bases.
	notes []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.checks) == 0 }

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// out is the directory traced runs write their span files to.
	out string
	// workers bounds workers, clients and connections: nproc, capped at
	// two so figures stay comparable across hosts.
	workers int
	// small shrinks every workload's inputs; tests use it.
	small bool
}

// workloads maps each workload name to the function that runs it. Each
// measures with tracing off, and with cfg.trace set then also runs its
// traced run and fills the per-layer metrics.
var workloads = map[string]func(cfg config) *result{
	"campaign":    runCampaign,
	"matrix":      runMatrix,
	"conformance": runConformance,
	"service":     runService,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: campaign, matrix, conformance or service")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		out:     *out,
		workers: min(runtime.GOMAXPROCS(0), 2),
	}
	res := drive(cfg)
	return report(stdout, stderr, *name, cfg, res)
}

// report prints the notes and the final JSON line, and returns the exit
// code. A run whose checks failed prints no metrics.
func report(stdout, stderr io.Writer, name string, cfg config, res *result) int {
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "%s: %s\n", name, n)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.correct(), Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]metric{}}
	code := 0
	if !res.correct() {
		for _, c := range res.checks {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", name, c)
		}
		out.Failed = max(out.Failed, 1)
		code = 1
	} else {
		for _, d := range want {
			m, ok := res.metrics[d.name]
			if !ok {
				// A layer this workload does not call did no work.
				m = metric{0, d.unit}
			}
			if m.Unit != d.unit {
				fmt.Fprintf(stderr, "perfbench: %s: metric %s has unit %q, declared %q\n", name, d.name, m.Unit, d.unit)
				code = 1
			}
			out.Metrics[d.name] = m
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return code
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
