package plurality

import (
	"context"
	"errors"
	"testing"
)

func mustPop(t *testing.T, counts []int64) *Population {
	t.Helper()
	pop, err := NewPopulation(counts)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// runOn compiles spec with opts against pop's histogram and runs the job
// on pop in place.
func runOn(t *testing.T, spec string, pop *Population, opts ...Option) (Report, error) {
	t.Helper()
	job, err := NewJob(spec, pop.Counts(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return job.RunOn(context.Background(), pop)
}

// runCore runs the core protocol on pop in place and returns its full
// result.
func runCore(t *testing.T, pop *Population, opts ...Option) (CoreResult, error) {
	t.Helper()
	rep, err := runOn(t, "core", pop, opts...)
	res, _ := rep.Core()
	return res, err
}

func biasedCounts(t *testing.T, n, k int, eps float64) []int64 {
	t.Helper()
	counts, err := Biased(n, k, eps)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func gapSqrtCounts(t *testing.T, n, k int, z float64) []int64 {
	t.Helper()
	counts, err := GapSqrt(n, k, z)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func gapPolylogCounts(t *testing.T, n, k int, z float64) []int64 {
	t.Helper()
	counts, err := GapSqrtPolylog(n, k, z)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func TestWorkloadConstructors(t *testing.T) {
	tests := []struct {
		name string
		make func() ([]int64, error)
	}{
		{name: "Biased", make: func() ([]int64, error) { return Biased(10000, 8, 0.5) }},
		{name: "GapSqrt", make: func() ([]int64, error) { return GapSqrt(10000, 8, 1) }},
		{name: "GapSqrtPolylog", make: func() ([]int64, error) { return GapSqrtPolylog(10000, 8, 0.5) }},
		{name: "TinyGap", make: func() ([]int64, error) { return TinyGap(10000, 8, 1) }},
		{name: "Uniform", make: func() ([]int64, error) { return Uniform(10000, 8) }},
		{name: "Zipf", make: func() ([]int64, error) { return Zipf(10000, 8, 1.1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			counts, err := tt.make()
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for _, c := range counts {
				total += c
			}
			if total != 10000 || len(counts) != 8 {
				t.Fatalf("counts = %v", counts)
			}
		})
	}
}

func TestRunCoreEndToEnd(t *testing.T) {
	pop := mustPop(t, biasedCounts(t, 5000, 4, 1))
	res, err := runCore(t, pop, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Winner != 0 {
		t.Fatalf("res = %+v", res)
	}
	if !pop.ConsensusOn(0) {
		t.Fatalf("population not unanimous: %v", pop.Counts())
	}
}

func TestRunCorePoissonModel(t *testing.T) {
	pop := mustPop(t, biasedCounts(t, 3000, 4, 1))
	res, err := runCore(t, pop, WithSeed(8), WithModel(Poisson))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Winner != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunCoreDeterministicAcrossCalls(t *testing.T) {
	run := func() CoreResult {
		pop := mustPop(t, biasedCounts(t, 2000, 4, 1))
		res, err := runCore(t, pop, WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs with equal seed differ: %+v vs %+v", a, b)
	}
}

func TestRunCoreUnknownModel(t *testing.T) {
	job, err := NewJob("core", biasedCounts(t, 100, 2, 1), WithModel(Model(99)))
	if err == nil {
		_, err = job.Run(context.Background())
	}
	if err == nil {
		t.Fatal("unknown model should fail")
	}
}

func TestRunCoreNilPopulation(t *testing.T) {
	job, err := NewJob("core", biasedCounts(t, 100, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.RunOn(context.Background(), nil); err == nil {
		t.Fatal("nil population should fail")
	}
}

func TestRunCoreBudgetError(t *testing.T) {
	pop := mustPop(t, biasedCounts(t, 2000, 4, 0.5))
	_, err := runCore(t, pop, WithMaxTime(1))
	if !errors.Is(err, ErrNoConsensus) {
		t.Fatalf("err = %v, want ErrNoConsensus", err)
	}
}

func TestRunTwoChoicesSync(t *testing.T) {
	pop := mustPop(t, gapSqrtCounts(t, 4000, 4, 1.5))
	res, err := runOn(t, "two-choices", pop, WithSeed(10), WithModel(Synchronous))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Winner != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunTwoChoicesAsync(t *testing.T) {
	pop := mustPop(t, biasedCounts(t, 2000, 3, 1))
	res, err := runOn(t, "two-choices", pop, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Winner != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunVoterBothModels(t *testing.T) {
	syncPop := mustPop(t, []int64{200, 200})
	if _, err := runOn(t, "voter", syncPop, WithSeed(12), WithModel(Synchronous)); err != nil {
		t.Fatal(err)
	}
	asyncPop := mustPop(t, []int64{200, 200})
	res, err := runOn(t, "voter", asyncPop, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("voter async did not converge: %+v", res)
	}
}

func TestRunThreeMajority(t *testing.T) {
	pop := mustPop(t, biasedCounts(t, 3000, 4, 1))
	res, err := runOn(t, "3-majority", pop, WithSeed(14), WithModel(Synchronous))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Winner != 0 {
		t.Fatalf("res = %+v", res)
	}
	pop2 := mustPop(t, biasedCounts(t, 3000, 4, 1))
	res2, err := runOn(t, "3-majority", pop2, WithSeed(15))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged || res2.Winner != 0 {
		t.Fatalf("res2 = %+v", res2)
	}
}

func TestRunOneExtraBit(t *testing.T) {
	pop := mustPop(t, gapPolylogCounts(t, 10000, 8, 0.5))
	var phases int
	rep, err := runOn(t, "onebit", pop, WithSeed(16), WithObserver(1, func(Snapshot) { phases++ }))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := rep.Phases()
	if !res.Done || res.Winner != 0 {
		t.Fatalf("res = %+v", res)
	}
	if phases == 0 {
		t.Fatal("phase observer never fired")
	}
}

func TestRunCoreWithProbeAndTuning(t *testing.T) {
	pop := mustPop(t, biasedCounts(t, 2000, 4, 1))
	var probes int
	res, err := runCore(t, pop,
		WithSeed(17),
		WithDelta(40),
		WithPhases(8),
		WithGadgetSamples(20),
		WithEndgameTicks(60),
		WithProbe(10, func(CoreProbe) { probes++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatalf("res = %+v", res)
	}
	if probes == 0 {
		t.Fatal("probe observer never fired")
	}
}

func TestRunCoreEndgameOnly(t *testing.T) {
	pop := mustPop(t, []int64{4500, 500})
	res, err := runCore(t, pop, WithSeed(18), WithEndgameOnly(), WithRunToHalt())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || !res.EndgameSafe || res.FirstHaltTime == 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunCoreWithResponseDelay(t *testing.T) {
	pop := mustPop(t, biasedCounts(t, 2000, 3, 1))
	res, err := runCore(t, pop, WithSeed(19), WithResponseDelay(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Winner != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunCoreFailureInjection(t *testing.T) {
	spec, err := PlanCore(4000)
	if err != nil {
		t.Fatal(err)
	}
	pop := mustPop(t, biasedCounts(t, 4000, 4, 1))
	res, err := runCore(t, pop,
		WithSeed(20),
		WithCrashes(0.01),
		WithDesync(0.02, spec.PhaseTicks),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Winner != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestPlanCore(t *testing.T) {
	spec, err := PlanCore(100000)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Delta <= 0 || spec.Part1Ticks != spec.Phases*spec.PhaseTicks {
		t.Fatalf("spec = %+v", spec)
	}
	custom, err := PlanCore(100000, WithDelta(99))
	if err != nil {
		t.Fatal(err)
	}
	if custom.Delta != 99 {
		t.Fatalf("override ignored: %+v", custom)
	}
}

func TestWithGraphTopology(t *testing.T) {
	// Voter on a small cycle still reaches consensus (slowly).
	g, err := CycleGraph(30)
	if err != nil {
		t.Fatal(err)
	}
	pop := mustPop(t, []int64{15, 15})
	res, err := runOn(t, "voter", pop, WithSeed(21), WithGraph(g), WithMaxTime(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("res = %+v", res)
	}
}

func TestTopologyConstructors(t *testing.T) {
	if _, err := CompleteGraph(10); err != nil {
		t.Error(err)
	}
	if _, err := TorusGraph(4, 4); err != nil {
		t.Error(err)
	}
	g, err := RandomGraph(100, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 {
		t.Fatalf("N = %d", g.N())
	}
}

func TestSyncRunnersRespectMaxRounds(t *testing.T) {
	pop := mustPop(t, []int64{500, 500})
	// keep-own is impossible here, but a tiny round budget with real
	// dynamics still has to error out on a large balanced instance.
	_, err := runOn(t, "voter", pop, WithSeed(22), WithModel(Synchronous), WithMaxRounds(1))
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
}
