package repro

import (
	"testing"

	"rff/internal/bench"
	"rff/internal/core"
)

// allocGateBudget is the number of schedules each gated campaign runs.
const allocGateBudget = 300

// allocGateBounds caps the heap allocations per execution of a seed-1
// campaign of allocGateBudget schedules on each perfPrograms subject, set
// about 5% above the measured value (93.8, 148.1 and 123.1 when the bounds
// were set; 170.0, 488.4 and 379.7 before call-site locations were
// cached by PC). Allocation counts are deterministic
// where timings are not, so a hot-path allocation regression fails here
// rather than only slowing the benchmarks down.
var allocGateBounds = map[string]float64{
	"CS/reorder_10":  99,
	"CS/twostage_20": 156,
	"SafeStack":      130,
}

// TestPerfAllocsPerExecution runs the full fuzzing loop — mutate, execute
// under the proactive scheduler, observe, extend the pool — exactly as
// BenchmarkPerfExecuteObserve does, and fails when any subject allocates
// more per execution than its bound.
func TestPerfAllocsPerExecution(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation counts")
	}
	if testing.Short() {
		t.Skip("runs full campaigns")
	}
	for _, name := range perfPrograms {
		p := bench.MustGet(name)
		perExec := testing.AllocsPerRun(1, func() {
			f := core.NewFuzzer(p.Name, p.Body, core.Options{Budget: allocGateBudget, MaxSteps: 5000, Seed: 1})
			if rep := f.Run(); rep.Executions != allocGateBudget {
				t.Fatalf("%s: ran %d schedules, want %d", name, rep.Executions, allocGateBudget)
			}
		}) / allocGateBudget
		if perExec > allocGateBounds[name] {
			t.Errorf("%s: %.1f allocs per execution, bound %.0f", name, perExec, allocGateBounds[name])
		}
	}
}
