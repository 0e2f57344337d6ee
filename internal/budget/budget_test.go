package budget

import (
	"context"
	"reflect"
	"testing"
)

// syntheticReward is a deterministic reward stream: cell i's yield in
// epoch e depends only on (seed, i, e), so two allocators fed the same
// stream must produce identical traces.
func syntheticReward(seed int64, cell, epoch, share int) Reward {
	r := NewRand(seed + int64(cell)*1000 + int64(epoch))
	if share == 0 {
		return Reward{}
	}
	return Reward{
		Executions: share,
		NewPairs:   r.Intn(share + 1),
		FirstBug:   r.Float64() < 0.02,
	}
}

// runStream drives an allocator through epochs of a synthetic stream
// and returns its trace.
func runStream(t *testing.T, policy string, seed int64, cells, epochs, pool int) *Allocator {
	t.Helper()
	a, err := New(cells, seed, Config{Policy: policy, Epochs: epochs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for e := 0; e < epochs; e++ {
		shares := a.Allocate(pool)
		for i, s := range shares {
			if a.Done(i) {
				continue
			}
			rw := syntheticReward(seed, i, e, s)
			a.Observe(i, rw)
			if rw.FirstBug {
				a.MarkDone(i)
			}
		}
	}
	return a
}

// TestConservation: every epoch's shares are non-negative, sum to the
// pool (while any cell is live), respect the floor, and never fund a
// done cell.
func TestConservation(t *testing.T) {
	for _, policy := range Policies() {
		t.Run(policy, func(t *testing.T) {
			const cells, epochs, pool = 6, 12, 100
			a, err := New(cells, 42, Config{Policy: policy, MinShare: 3})
			if err != nil {
				t.Fatal(err)
			}
			done := make(map[int]bool)
			for e := 0; e < epochs; e++ {
				shares := a.Allocate(pool)
				if len(shares) != cells {
					t.Fatalf("epoch %d: %d shares, want %d", e, len(shares), cells)
				}
				sum, live := 0, cells-len(done)
				for i, s := range shares {
					if s < 0 {
						t.Fatalf("epoch %d cell %d: negative share %d", e, i, s)
					}
					if done[i] && s != 0 {
						t.Fatalf("epoch %d: done cell %d funded %d", e, i, s)
					}
					if !done[i] && live > 0 && s < 3 && pool >= 3*live {
						t.Fatalf("epoch %d: cell %d starved below floor: %d", e, i, s)
					}
					sum += s
				}
				if live > 0 && sum != pool {
					t.Fatalf("epoch %d: shares sum to %d, want pool %d", e, sum, pool)
				}
				if live == 0 && sum != 0 {
					t.Fatalf("epoch %d: all done but allocated %d", e, sum)
				}
				for i, s := range shares {
					if done[i] {
						continue
					}
					a.Observe(i, syntheticReward(42, i, e, s))
					if e == i { // retire one cell per epoch
						a.MarkDone(i)
						done[i] = true
					}
				}
			}
			if got := a.Trace(); len(got) != epochs {
				t.Fatalf("trace has %d entries, want %d", len(got), epochs)
			}
		})
	}
}

// TestPoolSmallerThanCells: with fewer executions than live cells the
// floor degrades to one-each in cell order and nothing goes negative.
func TestPoolSmallerThanCells(t *testing.T) {
	a, err := New(8, 1, Config{Policy: "ucb"})
	if err != nil {
		t.Fatal(err)
	}
	shares := a.Allocate(3)
	want := []int{1, 1, 1, 0, 0, 0, 0, 0}
	if !reflect.DeepEqual(shares, want) {
		t.Fatalf("shares = %v, want %v", shares, want)
	}
}

// TestZeroPool allocates nothing but still records a trace entry.
func TestZeroPool(t *testing.T) {
	a, err := New(3, 1, Config{Policy: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range a.Allocate(0) {
		if s != 0 {
			t.Fatalf("zero pool allocated %d", s)
		}
	}
	if a.Epoch() != 1 || len(a.Trace()) != 1 {
		t.Fatalf("epoch %d, trace %d; want 1, 1", a.Epoch(), len(a.Trace()))
	}
}

// TestAllDone: once every cell is marked done, allocation is all
// zeros regardless of pool.
func TestAllDone(t *testing.T) {
	a, err := New(4, 9, Config{Policy: "fox"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		a.MarkDone(i)
	}
	for _, s := range a.Allocate(1000) {
		if s != 0 {
			t.Fatalf("done cell funded %d", s)
		}
	}
	if a.Active() != 0 {
		t.Fatalf("Active() = %d, want 0", a.Active())
	}
}

// TestRunEpochLoop: Run splits the pool across epochs with the
// remainder up front, feeds rewards back to live cells only, retires
// cells that report Done, and stops once no cell is active.
func TestRunEpochLoop(t *testing.T) {
	a, err := New(3, 5, Config{Policy: "uniform", Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var pools []int
	a.Run(context.Background(), 30, func(epoch, pool int, shares []int) []Result {
		pools = append(pools, pool)
		sum := 0
		res := make([]Result, len(shares))
		for i, s := range shares {
			sum += s
			res[i].Executions = s
			if a.Done(i) {
				if s != 0 {
					t.Errorf("epoch %d: done cell %d funded %d", epoch, i, s)
				}
				res[i].Executions = 1000 // must be ignored
			}
		}
		if sum != pool {
			t.Errorf("epoch %d: shares sum to %d, want %d", epoch, sum, pool)
		}
		// Cell 0 retires after epoch 0; everyone retires after epoch 2.
		res[0].Done = true
		if epoch == 2 {
			for i := range res {
				res[i].Done = true
			}
		}
		return res
	})
	if want := []int{8, 8, 7}; !reflect.DeepEqual(pools, want) {
		t.Fatalf("epoch pools = %v, want %v (30 over 4 epochs, stopping when all cells are done)", pools, want)
	}
	if a.Epoch() != 3 || a.Active() != 0 {
		t.Fatalf("epoch %d, active %d; want 3, 0", a.Epoch(), a.Active())
	}
	var spent int64
	for _, c := range a.Cells() {
		spent += c.Spent
	}
	if spent != 23 {
		t.Fatalf("cells spent %d in total, want the 23 executions granted", spent)
	}

	b, err := New(2, 5, Config{Policy: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b.Run(ctx, 100, func(int, int, []int) []Result {
		t.Fatal("wave ran under a cancelled context")
		return nil
	})
}

// TestDeterminism: the same (policy, seed, reward stream) yields a
// bit-identical trace and cell state on rerun.
func TestDeterminism(t *testing.T) {
	for _, policy := range Policies() {
		t.Run(policy, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				a := runStream(t, policy, seed, 5, 10, 90)
				b := runStream(t, policy, seed, 5, 10, 90)
				if !reflect.DeepEqual(a.Trace(), b.Trace()) {
					t.Fatalf("seed %d: traces differ:\n%v\n%v", seed, a.Trace(), b.Trace())
				}
				if !reflect.DeepEqual(a.Cells(), b.Cells()) {
					t.Fatalf("seed %d: cell state differs", seed)
				}
				if a.Reallocations() != b.Reallocations() {
					t.Fatalf("seed %d: reallocations differ: %d vs %d",
						seed, a.Reallocations(), b.Reallocations())
				}
			}
		})
	}
}

// TestAdaptiveShiftsBudget: under a stream where cell 0 yields pairs
// and the rest never do, every adaptive policy ends up granting cell 0
// strictly more than a uniform split would.
func TestAdaptiveShiftsBudget(t *testing.T) {
	for _, policy := range AdaptivePolicies() {
		t.Run(policy, func(t *testing.T) {
			const cells, epochs, pool = 4, 10, 100
			a, err := New(cells, 7, Config{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < epochs; e++ {
				shares := a.Allocate(pool)
				for i, s := range shares {
					rw := Reward{Executions: s}
					if i == 0 {
						rw.NewPairs = s / 2
					}
					a.Observe(i, rw)
				}
			}
			cs := a.Cells()
			uniform := int64(epochs * pool / cells)
			if cs[0].Allocated <= uniform {
				t.Fatalf("cell 0 got %d executions, uniform split is %d — no adaptation",
					cs[0].Allocated, uniform)
			}
		})
	}
}

// TestValidate covers the config error paths every entry point relies
// on for early rejection.
func TestValidate(t *testing.T) {
	if err := (Config{Policy: "nope"}).Validate(); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := (Config{Policy: "ucb", MinShare: -1}).Validate(); err == nil {
		t.Fatal("negative min-share accepted")
	}
	if err := (Config{Policy: "ucb"}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := New(0, 1, Config{Policy: "ucb"}); err == nil {
		t.Fatal("zero cells accepted")
	}
	if _, err := New(2, 1, Config{Policy: "ucb", Epochs: -2}); err == nil {
		t.Fatal("negative epochs accepted")
	}
}

// TestPolicyList pins the catalog: the uniform baseline plus three
// adaptive policies, and AdaptivePolicies excludes the baseline.
func TestPolicyList(t *testing.T) {
	want := []string{"eps-greedy", "fox", "ucb", "uniform"}
	if got := Policies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Policies() = %v, want %v", got, want)
	}
	wantA := []string{"eps-greedy", "fox", "ucb"}
	if got := AdaptivePolicies(); !reflect.DeepEqual(got, wantA) {
		t.Fatalf("AdaptivePolicies() = %v, want %v", got, wantA)
	}
	for _, name := range Policies() {
		if !ValidPolicy(name) {
			t.Fatalf("ValidPolicy(%q) = false", name)
		}
	}
	if ValidPolicy("UNIFORM") || ValidPolicy("") {
		t.Fatal("invalid names accepted")
	}
}

// TestEpochSeed: epoch 0 is the identity (a one-epoch uniform campaign
// must reproduce the classic matrix), later epochs diverge.
func TestEpochSeed(t *testing.T) {
	if got := EpochSeed(12345, 0); got != 12345 {
		t.Fatalf("EpochSeed(s, 0) = %d, want identity", got)
	}
	seen := map[int64]bool{12345: true}
	for e := 1; e < 50; e++ {
		s := EpochSeed(12345, e)
		if seen[s] {
			t.Fatalf("epoch %d: seed collision %d", e, s)
		}
		seen[s] = true
	}
}

// TestDefaults: zero-valued config fields pick up package defaults.
func TestDefaults(t *testing.T) {
	a, err := New(2, 1, Config{Policy: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := a.Config(); cfg.Epochs != DefaultEpochs || cfg.MinShare != DefaultMinShare {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}
