package core_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/telemetry"
)

// runWithHub runs a fuzzing campaign with a fully wired telemetry hub and
// returns the report, the final snapshot, and the decoded event stream.
func runWithHub(t *testing.T, prog exec.Program, opts core.Options) (*core.Report, telemetry.Snapshot, []telemetry.Event) {
	t.Helper()
	var buf bytes.Buffer
	hub := telemetry.NewHub()
	hub.Events = telemetry.NewEventWriter(&buf)
	opts.Telemetry = hub
	rep := core.NewFuzzer("prog", prog, opts).Run()
	hub.Flush()

	var evs []telemetry.Event
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return rep, hub.Snapshot(), evs
}

func TestFuzzerTelemetryCounters(t *testing.T) {
	crashes := 0
	rep, snap, evs := runWithHub(t, reorder(5), core.Options{
		Budget: 60, Seed: 11,
		ResultObserver: func(res *exec.Result) {
			if res.Buggy() {
				crashes++
			}
		},
	})
	prog := telemetry.L("program", "prog")

	if got := snap.Value(telemetry.MSchedulesExecuted, prog); got != int64(rep.Executions) {
		t.Fatalf("schedules_executed = %d, want %d", got, rep.Executions)
	}
	if got := snap.Value(telemetry.MRFPairsNew, prog); got != int64(rep.UniquePairs) {
		t.Fatalf("rf_pairs_new = %d, want %d (UniquePairs)", got, rep.UniquePairs)
	}
	if got := snap.Value(telemetry.MRFCombosNew, prog); got != int64(rep.UniqueSigs) {
		t.Fatalf("rf_combos_new = %d, want %d (UniqueSigs)", got, rep.UniqueSigs)
	}
	if got := snap.Value(telemetry.MCorpusSize, prog); got != int64(rep.CorpusSize) {
		t.Fatalf("corpus_size gauge = %d, want %d", got, rep.CorpusSize)
	}
	// Every execution flows through the engine: the steps histogram must
	// have one observation per schedule and a positive event total.
	hd := snap.Histogram(telemetry.MStepsPerSchedule)
	if hd == nil || hd.Count != int64(rep.Executions) || hd.Sum <= 0 {
		t.Fatalf("steps_per_schedule histogram = %+v, want count %d", hd, rep.Executions)
	}
	if got := snap.Value(telemetry.MEngineExecutions); got != int64(rep.Executions) {
		t.Fatalf("engine_executions = %d, want %d", got, rep.Executions)
	}
	// The power schedule assigned energy at least once per stage.
	if hd := snap.Histogram(telemetry.MEnergyAssigned, prog); hd == nil || hd.Count == 0 {
		t.Fatalf("energy_assigned histogram missing: %+v", hd)
	}

	// Corpus additions produced interesting-schedule events; reorder(5)
	// crashes within the budget, producing exactly one first-bug event.
	var interesting, firstBug int
	for _, ev := range evs {
		switch ev.Kind {
		case telemetry.EvInteresting:
			interesting++
		case telemetry.EvFirstBug:
			firstBug++
		}
	}
	if interesting == 0 {
		t.Fatal("no interesting-schedule events emitted")
	}
	if !rep.FoundBug() {
		t.Fatalf("reorder(5) should crash within 60 schedules")
	}
	if firstBug != 1 {
		t.Fatalf("first-bug events = %d, want 1", firstBug)
	}
	// Every crashing execution counts, though Failures keeps only the
	// first of each distinct failure.
	if crashes <= len(rep.Failures) {
		t.Fatalf("%d crashing executions for %d failure records: want repeats of a failure", crashes, len(rep.Failures))
	}
	if got := snap.Value(telemetry.MSchedulesCrashed, prog); got != int64(crashes) {
		t.Fatalf("schedules_crashed = %d, want %d crashing executions", got, crashes)
	}
}

func TestFuzzerTelemetryConstraints(t *testing.T) {
	// With the proactive scheduler on, a bug-finding reorder campaign
	// must witness positive constraints along the way.
	_, snap, _ := runWithHub(t, reorder(5), core.Options{Budget: 200, Seed: 5})
	if got := snap.Value(telemetry.MConstraintSatisfied, telemetry.L("program", "prog")); got == 0 {
		t.Fatal("constraint_satisfied never incremented over 200 schedules")
	}
}

func TestFuzzerNilTelemetryUnchanged(t *testing.T) {
	// A nil sink must not alter campaign behaviour: identical reports
	// with and without telemetry under the same seed.
	opts := core.Options{Budget: 80, Seed: 4}
	plain := core.NewFuzzer("prog", reorder(3), opts).Run()
	wired, _, _ := runWithHub(t, reorder(3), opts)
	if plain.Executions != wired.Executions || plain.FirstBug != wired.FirstBug ||
		plain.CorpusSize != wired.CorpusSize || plain.UniquePairs != wired.UniquePairs {
		t.Fatalf("telemetry changed campaign behaviour: %+v vs %+v", plain, wired)
	}
}

func TestTraceObserverPanicDoesNotCorruptCorpus(t *testing.T) {
	// An observer that panics on every trace must not kill the campaign:
	// the fuzzer still runs to its budget, keeps feeding the corpus, and
	// counts the recovered panics.
	calls := 0
	opts := core.Options{
		Budget: 40, Seed: 9,
		TraceObserver: func(tr *exec.Trace) {
			calls++
			panic("observer exploded")
		},
	}
	rep, snap, _ := runWithHub(t, reorder(3), opts)
	if rep.Executions != 40 {
		t.Fatalf("campaign stopped early at %d/40 executions", rep.Executions)
	}
	if calls != rep.Executions {
		t.Fatalf("observer fired %d times, want once per %d executions", calls, rep.Executions)
	}
	if rep.CorpusSize < 1 {
		t.Fatalf("corpus corrupted: size %d", rep.CorpusSize)
	}
	if got := snap.Value(telemetry.MObserverPanics, telemetry.L("program", "prog")); got != int64(rep.Executions) {
		t.Fatalf("observer_panics = %d, want %d", got, rep.Executions)
	}

	// The surviving campaign must match a panic-free observer run:
	// recovery may not perturb feedback, mutation, or corpus state.
	clean := core.NewFuzzer("prog", reorder(3), core.Options{
		Budget: 40, Seed: 9,
		TraceObserver: func(tr *exec.Trace) {},
	}).Run()
	if clean.CorpusSize != rep.CorpusSize || clean.UniquePairs != rep.UniquePairs ||
		clean.FirstBug != rep.FirstBug {
		t.Fatalf("panicking observer perturbed the campaign: %+v vs %+v", rep, clean)
	}
}
