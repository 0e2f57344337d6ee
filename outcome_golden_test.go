// Digest goldens for the outcome pipelines: the budgeted matrix under
// every allocation policy, the fixed and budgeted conformance harness,
// sched-eval, and the sharded campaign. Each case pins the sha256 of
// the JSON report, so a refactor of the shared epoch loop, failure key
// or first-cover collector that shifts every run the same way — which
// rerun-vs-rerun determinism tests cannot see — fails here.
//
// If an intentional semantic change moves a digest, re-capture it in the
// same change and say why in the commit message.
package repro

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/campaign"
	"rff/internal/conformance"
	"rff/internal/core"
	"rff/internal/schedeval"
	"rff/internal/shard"
	"rff/internal/strategy"
	"rff/internal/telemetry"
)

func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshaling report: %v", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func checkDigest(t *testing.T, name string, v any, want string) {
	t.Helper()
	if got := jsonDigest(t, v); got != want {
		t.Errorf("%s: report digest %s, want %s", name, got, want)
	}
}

// goldenBudgetedMatrix maps each budget policy to the digest of a
// 2-tool x 3-program x 2-trial budgeted matrix with first-cover
// collection, budget report included.
var goldenBudgetedMatrix = map[string]string{
	"eps-greedy": "d59c3171f4a4f4393a9686618142a0ce6cb10f9fc37f15059e75191a2e69349e",
	"fox":        "1d45b506ac02bbaa22ac0ab42853a50bc9fc02f09454188c3c21849f7c0ace16",
	"ucb":        "d9732d00f711a1af657798718f08ffd441c04db4fb76b5384807c7d08983fc53",
	"uniform":    "43ec53793d90fd1360b682e2d27e0593ca9dc3d9c896f5f0febaeb05ca9a6eaf",
}

func TestGoldenBudgetedMatrixDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a budgeted matrix per policy")
	}
	tools, err := strategy.ResolveAll([]string{"rff", "pos"}, strategy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var progs []bench.Program
	for _, name := range []string{"CS/account", "CS/lazy01", "CS/reorder_10"} {
		progs = append(progs, bench.MustGet(name))
	}
	for _, policy := range budget.Policies() {
		want, ok := goldenBudgetedMatrix[policy]
		if !ok {
			t.Errorf("policy %q has no golden digest", policy)
			continue
		}
		m := campaign.RunMatrix(tools, progs, campaign.MatrixOptions{
			Trials:   2,
			Budget:   150,
			BaseSeed: 7,
			Workers:  2,
			Budgeter: &budget.Config{Policy: policy, Epochs: 4, CollectCovers: true},
		})
		if m.BudgetReport == nil {
			t.Fatalf("%s: budgeted matrix has no budget report", policy)
		}
		checkDigest(t, "matrix/"+policy, m, want)
	}
}

func goldenConformanceOpts() conformance.Options {
	return conformance.Options{
		Programs: 3,
		Seed:     3,
		Budget:   60,
		Trials:   2,
		Workers:  2,
		GTBudget: 20000,
		Grammar:  "all",
	}
}

func TestGoldenConformanceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two conformance matrices")
	}
	fixed := conformance.Run(goldenConformanceOpts())
	if fixed.Err != "" {
		t.Fatalf("fixed run aborted: %s", fixed.Err)
	}
	checkDigest(t, "conformance/fixed", fixed, "fb73a0f265a510ed61704ec3138b58b7eee0c80f25e0f4741b55f89d0708d2a3")

	opts := goldenConformanceOpts()
	opts.BudgetPolicy = "ucb"
	opts.BudgetEpochs = 4
	budgeted := conformance.Run(opts)
	if budgeted.Err != "" {
		t.Fatalf("budgeted run aborted: %s", budgeted.Err)
	}
	checkDigest(t, "conformance/ucb", budgeted, "3c4b4743c0bb8876635ef5fac005377d5c7f16f09e8b4e15e5713f645a9c6062")
}

func TestGoldenSchedEvalDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sched-eval campaigns")
	}
	rep := schedeval.Run(schedeval.Options{
		Programs: 2,
		Seeds:    []int64{1, 2},
		Specs:    []string{"rff", "pos"},
		Policies: []string{"uniform", "ucb"},
		Budget:   120,
		Epochs:   4,
		Workers:  2,
	})
	if rep.Err != "" {
		t.Fatalf("sched-eval aborted: %s", rep.Err)
	}
	checkDigest(t, "sched-eval", rep, "3319bc82dc060743f4b8abeecfa8506bee5f98f1047a0ff94892a3134c879161")
}

// TestGoldenShardDigest pins a sharded campaign that keeps fuzzing past
// its first bug, so the merge barrier's failure dedup is exercised.
func TestGoldenShardDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sharded campaign")
	}
	p := bench.MustGet("CS/account")
	rep := shard.Fuzz(p.Name, p.Body, shard.Options{Budget: 600, Seed: 11, Shards: 2})
	if len(rep.Failures) == 0 {
		t.Fatal("sharded campaign recorded no failure")
	}
	checkDigest(t, "shard", rep, "b5185154382edc31907323f4a94f4ee157d7491e84ed445704297cc5163d5a20")
}

// goldenSequentialReports pins the JSON of sequential core.Report
// campaigns that keep fuzzing past their first bug. Failures holds the
// first failing execution of each distinct failure key, so the digests
// also pin the failure policy the sequential and sharded loops share.
var goldenSequentialReports = map[string]string{
	"CS/account":     "bbb57ef14e3e963074de482bb5c72de40e18cb798fdec929fed41550340785d4",
	"CS/twostage_20": "8529d23a4affa7c32dcb38f860f4349afa66581bdcc87275bec6832296d84e50",
}

func TestGoldenSequentialReportDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 600-schedule campaigns")
	}
	for name, want := range goldenSequentialReports {
		p := bench.MustGet(name)
		rep := core.NewFuzzer(p.Name, p.Body, core.Options{Budget: 600, Seed: 11}).Run()
		if len(rep.Failures) == 0 {
			t.Fatalf("%s: campaign recorded no failure", name)
		}
		checkDigest(t, "sequential/"+name, rep, want)
	}
}

// telemetryDigest digests a campaign's metric snapshot and JSONL event
// stream with the fields that vary run to run removed: event timestamps,
// the merge-time histogram, the utilization gauge, and the per-shard
// series, which depend on which shard claimed which batch.
func telemetryDigest(t *testing.T, snap telemetry.Snapshot, events []byte) string {
	t.Helper()
	var metrics []telemetry.Metric
	for _, m := range snap.Metrics {
		switch {
		case m.Name == telemetry.MShardMergeNS, m.Name == telemetry.MShardUtilization, m.Labels["shard"] != "":
			continue
		}
		metrics = append(metrics, m)
	}
	var evs []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(events))
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		delete(ev, "ts")
		evs = append(evs, ev)
	}
	if len(evs) == 0 {
		t.Fatal("campaign emitted no events")
	}
	return jsonDigest(t, map[string]any{"metrics": metrics, "events": evs})
}

// TestGoldenCampaignTelemetryDigests pins the telemetry of one
// sequential and one 2-shard campaign: both loops must keep emitting the
// same counters, histograms and first-bug/interesting/epoch events.
func TestGoldenCampaignTelemetryDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two instrumented campaigns")
	}
	p := bench.MustGet("CS/account")
	cases := []struct {
		name string
		want string
		run  func(telemetry.Sink)
	}{
		{"sequential", "858b1d0bc47e4b55c94eb6349fb84b6517150841d19c53351879a28d8dc18f23", func(s telemetry.Sink) {
			core.NewFuzzer(p.Name, p.Body, core.Options{Budget: 600, Seed: 11, Telemetry: s}).Run()
		}},
		{"shards=2", "7346c799301b5baadc72972a6c7055bd922c5f47d13336fe76d453649ee92571", func(s telemetry.Sink) {
			shard.Fuzz(p.Name, p.Body, shard.Options{Budget: 600, Seed: 11, Shards: 2, Telemetry: s})
		}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		hub := telemetry.NewHub()
		hub.Events = telemetry.NewEventWriter(&buf)
		c.run(hub)
		hub.Flush()
		if got := telemetryDigest(t, hub.Snapshot(), buf.Bytes()); got != c.want {
			t.Errorf("telemetry/%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
