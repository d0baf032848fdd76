package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/spec"
)

// concurrentFake wraps fakeSystem with a mutex-free concurrency-safe
// Run (fakeSystem.Run only reads its maps) and records the number of
// Run calls, so tests can observe how much work early stop saved.
type concurrentFake struct {
	*fakeSystem
	mu   sync.Mutex
	runs int
}

func (c *concurrentFake) Run(deviator NodeID, dev Deviation) (Outcome, error) {
	c.mu.Lock()
	c.runs++
	c.mu.Unlock()
	return c.fakeSystem.Run(deviator, dev)
}

// randomFake builds a fakeSystem with a seeded random payoff table:
// ~1/3 of deviations strictly profitable, some ties, some losses.
func randomFake(seed int64) *fakeSystem {
	rng := rand.New(rand.NewSource(seed))
	f := newFake()
	kinds := []spec.ActionKind{spec.InfoRevelation, spec.MessagePassing, spec.Computation}
	for _, node := range []NodeID{0, 1} {
		for d := 0; d < 2+rng.Intn(8); d++ {
			name := fmt.Sprintf("dev-%d", d)
			delta := rng.Int63n(9) - 3 // [-3, 5]
			f.addDeviation(node, name, delta, kinds[rng.Intn(len(kinds))])
		}
	}
	return f
}

// TestDifferentialParallelVsSequential: the parallel engine must be
// byte-identical to the sequential oracle for every worker count.
func TestDifferentialParallelVsSequential(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		f := randomFake(seed)
		want, err := CheckFaithfulnessCfg(f, CheckConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			got, err := CheckFaithfulnessCfg(&concurrentFake{fakeSystem: f}, CheckConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d workers %d: parallel report %+v != sequential %+v", seed, workers, got, want)
			}
		}
	}
}

// TestEarlyStopSequentialSemantics pins the oracle behavior: stop at
// the first profitable deviation in catalogue order, Checked = its
// 1-based position.
func TestEarlyStopSequentialSemantics(t *testing.T) {
	f := newFake()
	f.addDeviation(0, "a-loss", -1, spec.Computation)
	f.addDeviation(0, "b-win", 4, spec.MessagePassing)
	f.addDeviation(0, "c-win", 9, spec.Computation)
	f.addDeviation(1, "d-win", 2, spec.InfoRevelation)
	rep, err := CheckFaithfulnessCfg(f, CheckConfig{EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 2 {
		t.Errorf("Checked = %d, want 2 (stopped at b-win)", rep.Checked)
	}
	if len(rep.Violations) != 1 || rep.Violations[0].Deviation != "b-win" {
		t.Errorf("violations = %v, want just b-win", rep.Violations)
	}
	if rep.CC() {
		t.Error("CC should fail via b-win")
	}
}

// TestEarlyStopParallelDeterminism: the early-stopped report must be
// identical for every worker count, even though a parallel search may
// execute more plays than the sequential one.
func TestEarlyStopParallelDeterminism(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		f := randomFake(seed)
		want, err := CheckFaithfulnessCfg(f, CheckConfig{EarlyStop: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 7} {
			got, err := CheckFaithfulnessCfg(&concurrentFake{fakeSystem: f}, CheckConfig{Workers: workers, EarlyStop: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d workers %d: early-stop report %+v != sequential %+v", seed, workers, got, want)
			}
		}
	}
}

// TestEarlyStopOnFaithfulSystem: nothing to stop on — the report must
// equal the full search's.
func TestEarlyStopOnFaithfulSystem(t *testing.T) {
	f := newFake()
	f.addDeviation(0, "a", -1, spec.Computation)
	f.addDeviation(1, "b", 0, spec.InfoRevelation)
	for _, workers := range []int{0, 4} {
		rep, err := CheckFaithfulnessCfg(&concurrentFake{fakeSystem: f}, CheckConfig{Workers: workers, EarlyStop: true})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Faithful() || rep.Checked != 2 {
			t.Errorf("workers %d: report %+v, want faithful with Checked=2", workers, rep)
		}
	}
}

// TestParallelRunErrorDeterministic: with several plays failing, the
// engine must report the earliest failing play's error regardless of
// worker count.
func TestParallelRunErrorDeterministic(t *testing.T) {
	f := newFake()
	f.addDeviation(0, "a", 1, spec.Computation)
	f.addDeviation(1, "b", 1, spec.Computation)
	f.runErr = errors.New("boom")
	want, wantErr := CheckFaithfulnessCfg(f, CheckConfig{})
	if wantErr == nil {
		t.Fatal("sequential run should error")
	}
	for _, workers := range []int{2, 4} {
		got, err := CheckFaithfulnessCfg(&concurrentFake{fakeSystem: f}, CheckConfig{Workers: workers})
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("workers %d: err = %v, want %v", workers, err, wantErr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers %d: report %+v, want %+v", workers, got, want)
		}
	}
}

// TestWorkersNegativeMeansNumCPU: a negative Workers must run (and
// stay deterministic) with the NumCPU pool.
func TestWorkersNegativeMeansNumCPU(t *testing.T) {
	f := randomFake(42)
	want, err := CheckFaithfulnessCfg(f, CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CheckFaithfulnessCfg(&concurrentFake{fakeSystem: f}, CheckConfig{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Workers: -1 report %+v != sequential %+v", got, want)
	}
}

// TestEarlyStopSavesWork: sequential early stop must not run plays
// past the stopping index.
func TestEarlyStopSavesWork(t *testing.T) {
	f := newFake()
	f.addDeviation(0, "win", 3, spec.Computation)
	for i := 0; i < 10; i++ {
		f.addDeviation(1, fmt.Sprintf("later-%d", i), 1, spec.Computation)
	}
	c := &concurrentFake{fakeSystem: f}
	rep, err := CheckFaithfulnessCfg(c, CheckConfig{EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 1 {
		t.Errorf("Checked = %d, want 1", rep.Checked)
	}
	if c.runs != 2 { // baseline + the one stopping play
		t.Errorf("runs = %d, want 2 (baseline + stopping play)", c.runs)
	}
}
