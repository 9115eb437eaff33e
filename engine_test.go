package plurality_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"plurality"
	"plurality/internal/par"
	"plurality/internal/stats"
)

// ksStat and ksThresh delegate to the shared KS helpers in internal/stats.
func ksStat(a, b []float64) float64            { return stats.KSStatistic(a, b) }
func ksThresh(alpha float64, m, n int) float64 { return stats.KSThreshold(alpha, m, n) }

// runOn compiles spec with opts against pop's histogram and runs the job
// on pop in place.
func runOn(t *testing.T, spec string, pop *plurality.Population, opts ...plurality.Option) (plurality.Report, error) {
	t.Helper()
	job, err := plurality.NewJob(spec, pop.Counts(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return job.RunOn(context.Background(), pop)
}

// runCounts compiles spec with opts and runs it from its counts.
func runCounts(spec string, counts []int64, opts ...plurality.Option) (plurality.Report, error) {
	job, err := plurality.NewJob(spec, counts, opts...)
	if err != nil {
		return plurality.Report{}, err
	}
	return job.Run(context.Background())
}

// runEngineTrials collects consensus times and tick counts of an
// asynchronous run of spec under the given engine, each trial on a fresh
// population. Trial i runs with seed seedBase+i and lands at index i, so
// the samples do not depend on how the trials are spread over the
// GOMAXPROCS workers; the workers report errors instead of failing the
// test themselves.
func runEngineTrials(t *testing.T, spec string, counts []int64, engine plurality.Engine, model plurality.Model, trials int, seedBase uint64) (times, ticks []float64) {
	t.Helper()
	times = make([]float64, trials)
	ticks = make([]float64, trials)
	err := par.ForEach(0, trials, func(i int) error {
		pop, err := plurality.NewPopulation(counts)
		if err != nil {
			return err
		}
		job, err := plurality.NewJob(spec, pop.Counts(),
			plurality.WithSeed(seedBase+uint64(i)),
			plurality.WithEngine(engine),
			plurality.WithModel(model),
			plurality.WithMaxTime(1e6))
		if err != nil {
			return err
		}
		rep, err := job.RunOn(context.Background(), pop)
		if err != nil {
			return err
		}
		if !pop.ConsensusOn(rep.Winner) {
			return fmt.Errorf("population disagrees with reported winner %d", rep.Winner)
		}
		times[i], ticks[i] = rep.Time, float64(rep.Ticks)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return times, ticks
}

// TestOccupancyMatchesPerNodeDistributions is the cross-engine half of the
// distributional-equivalence gate: for Two-Choices and 3-Majority under
// both the sequential and the Poisson model, the count-collapsed engine's
// consensus-time and tick-count distributions must be KS-indistinguishable
// from the per-node engine's. The runs are deterministic; a failure means
// the collapse is wrong, not bad luck.
func TestOccupancyMatchesPerNodeDistributions(t *testing.T) {
	const trials = 200
	counts := []int64{120, 60, 60}
	for _, model := range []plurality.Model{plurality.Sequential, plurality.Poisson} {
		for _, name := range []string{"two-choices", "3-majority"} {
			perT, perM := runEngineTrials(t, name, counts, plurality.EnginePerNode, model, trials, 100)
			occT, occM := runEngineTrials(t, name, counts, plurality.EngineOccupancy, model, trials, 9000)
			thresh := ksThresh(0.001, trials, trials) + 1.0/240
			if d := ksStat(perT, occT); d > thresh {
				t.Errorf("%s model=%d: consensus-time KS %.4f > %.4f", name, model, d, thresh)
			}
			if d := ksStat(perM, occM); d > thresh {
				t.Errorf("%s model=%d: tick-count KS %.4f > %.4f", name, model, d, thresh)
			}
		}
	}
}

// TestOccupancyMatchesPerNodeTrajectory compares the engines mid-run: the
// distribution of the plurality color's support after exactly MaxTime units
// of parallel time (the run times out by construction) must agree. This
// exercises the occupancy engine's timeout bookkeeping — tick budgets drawn
// from Poisson order statistics — against ground truth.
func TestOccupancyMatchesPerNodeTrajectory(t *testing.T) {
	const trials = 250
	counts := []int64{150, 75, 75}
	collect := func(engine plurality.Engine) []float64 {
		var out []float64
		for i := 0; i < trials; i++ {
			pop, err := plurality.NewPopulation(counts)
			if err != nil {
				t.Fatal(err)
			}
			_, err = runOn(t, "two-choices", pop,
				plurality.WithSeed(3000+uint64(i)),
				plurality.WithEngine(engine),
				plurality.WithModel(plurality.Poisson),
				plurality.WithMaxTime(3)) // far short of consensus
			if err == nil || !errors.Is(err, plurality.ErrTimeLimit) {
				t.Fatalf("trial %d: err = %v, want ErrTimeLimit", i, err)
			}
			out = append(out, float64(pop.Count(0)))
		}
		return out
	}
	per := collect(plurality.EnginePerNode)
	occ := collect(plurality.EngineOccupancy)
	// The support counts live on a lattice of integers; allow the usual
	// lattice slack on top of the KS threshold.
	thresh := ksThresh(0.001, trials, trials) + 1.0/50
	if d := ksStat(per, occ); d > thresh {
		t.Errorf("plurality-support trajectory KS %.4f > %.4f", d, thresh)
	}
}

// TestNewProtocolsMatchPerNodeDistributions extends the cross-engine
// distributional-equivalence gate to the registry's new families: for USD
// (whose undecided state rides in the occupancy engine's hidden bucket)
// and a j-Majority instance off the anchor points, the count-collapsed
// engine's consensus-time and tick-count distributions must be
// KS-indistinguishable from the per-node engine's, under both time models.
func TestNewProtocolsMatchPerNodeDistributions(t *testing.T) {
	const trials = 200
	counts := []int64{120, 60, 60}
	for _, model := range []plurality.Model{plurality.Sequential, plurality.Poisson} {
		for _, spec := range []string{"usd", "j-majority:4"} {
			perT, perM := runEngineTrials(t, spec, counts, plurality.EnginePerNode, model, trials, 100)
			occT, occM := runEngineTrials(t, spec, counts, plurality.EngineOccupancy, model, trials, 9000)
			thresh := ksThresh(0.001, trials, trials) + 1.0/240
			if d := ksStat(perT, occT); d > thresh {
				t.Errorf("%s model=%d: consensus-time KS %.4f > %.4f", spec, model, d, thresh)
			}
			if d := ksStat(perM, occM); d > thresh {
				t.Errorf("%s model=%d: tick-count KS %.4f > %.4f", spec, model, d, thresh)
			}
		}
	}
}

// TestJMajorityOneIsVoterBitForBit: j = 1 adopts the single sample without
// consuming any tie-break randomness, so under the per-node engine it must
// reproduce Voter exactly, seed for seed — the strongest form of the j=1
// anchor gate.
func TestJMajorityOneIsVoterBitForBit(t *testing.T) {
	counts := []int64{90, 60, 50}
	for seed := uint64(0); seed < 20; seed++ {
		popJ, err := plurality.NewPopulation(counts)
		if err != nil {
			t.Fatal(err)
		}
		popV, err := plurality.NewPopulation(counts)
		if err != nil {
			t.Fatal(err)
		}
		opts := []plurality.Option{
			plurality.WithSeed(seed),
			plurality.WithEngine(plurality.EnginePerNode),
			plurality.WithModel(plurality.Poisson),
			plurality.WithMaxTime(1e6),
		}
		resJ, errJ := runOn(t, "j-majority:1", popJ, opts...)
		resV, errV := runOn(t, "voter", popV, opts...)
		if errJ != nil || errV != nil {
			t.Fatalf("seed %d: errs %v / %v", seed, errJ, errV)
		}
		resJ.Protocol, resV.Protocol = "", ""
		if resJ != resV {
			t.Fatalf("seed %d: j-majority:1 %+v != voter %+v", seed, resJ, resV)
		}
	}
}

// TestJMajorityThreeMatchesThreeMajority: the j = 3 instance must be
// KS-indistinguishable from the 3-Majority built-in (whose first-sample
// tie-break is uniform over the tied colors by exchangeability) on
// consensus times and tick counts. Fixed seeds; the kernels' exact
// equality is separately pinned in the jmajority package.
func TestJMajorityThreeMatchesThreeMajority(t *testing.T) {
	const trials = 250
	counts := []int64{120, 60, 60}
	for _, engine := range []plurality.Engine{plurality.EnginePerNode, plurality.EngineOccupancy} {
		jT, jM := runEngineTrials(t, "j-majority:3", counts, engine, plurality.Poisson, trials, 300)
		mT, mM := runEngineTrials(t, "3-majority", counts, engine, plurality.Poisson, trials, 7700)
		thresh := ksThresh(0.001, trials, trials) + 1.0/240
		if d := ksStat(jT, mT); d > thresh {
			t.Errorf("engine=%d: consensus-time KS %.4f > %.4f", engine, d, thresh)
		}
		if d := ksStat(jM, mM); d > thresh {
			t.Errorf("engine=%d: tick-count KS %.4f > %.4f", engine, d, thresh)
		}
	}
}

// TestLeapMatchesExactDistributions is the hybrid engine's half of the
// distributional-equivalence gate: at sizes where the exact count-collapsed
// engine is still affordable, the tau-leap engine's consensus-time and
// tick-count distributions must stay KS-close to the exact law. Unlike the
// per-node/occupancy gate (a collapse-correctness check, equal in law), the
// leap engine is approximate by design — the slack term budgets its O(Eps)
// leaping bias and its deterministic mean-rate clock on top of the usual
// KS sampling threshold. n = 10⁷ is trimmed under -short (the -race CI job
// runs -short). ODE handoff never engages below n = 10⁸ at the default
// threshold, so this pins the stochastic regimes; the ODE path is covered
// by the occupancy and meanfield package tests.
func TestLeapMatchesExactDistributions(t *testing.T) {
	cases := []struct {
		n      int64
		trials int
		short  bool // also runs under -short
	}{
		{1e5, 100, true},
		{1e6, 80, true},
		{1e7, 50, false},
	}
	for _, spec := range []string{"two-choices", "usd"} {
		for _, c := range cases {
			if !c.short && testing.Short() {
				continue
			}
			counts := []int64{c.n / 2, c.n / 4, c.n / 4}
			occT, occM := runEngineTrials(t, spec, counts, plurality.EngineOccupancy, plurality.Poisson, c.trials, 4100)
			leapT, leapM := runEngineTrials(t, spec, counts, plurality.EngineLeap, plurality.Poisson, c.trials, 62000)
			thresh := ksThresh(0.001, c.trials, c.trials) + 0.12
			t.Logf("%s n=%g: timeKS=%.4f tickKS=%.4f thresh=%.4f", spec, float64(c.n), ksStat(occT, leapT), ksStat(occM, leapM), thresh)
			if d := ksStat(occT, leapT); d > thresh {
				t.Errorf("%s n=%g: consensus-time KS %.4f > %.4f", spec, float64(c.n), d, thresh)
			}
			if d := ksStat(occM, leapM); d > thresh {
				t.Errorf("%s n=%g: tick-count KS %.4f > %.4f", spec, float64(c.n), d, thresh)
			}
		}
	}
}

// TestCountsAPIMatchesPopulationRun: a counts job (EngineOccupancy, run
// from the histogram) and the same job on a population (EngineAuto,
// collapsing the population's histogram) drive the identical engine off
// the identical RNG streams, so for a fixed seed they must agree bit for
// bit.
func TestCountsAPIMatchesPopulationRun(t *testing.T) {
	counts := []int64{500, 250, 250}
	for _, tc := range []struct {
		spec string
		seed uint64
	}{
		{"two-choices", 77},
		// USD's undecided state rides in the engine's hidden bucket on
		// both paths.
		{"usd", 78},
	} {
		pop, err := plurality.NewPopulation(counts)
		if err != nil {
			t.Fatal(err)
		}
		fromPop, err := runOn(t, tc.spec, pop,
			plurality.WithSeed(tc.seed), plurality.WithModel(plurality.Poisson))
		if err != nil {
			t.Fatal(err)
		}
		fromCounts, err := runCounts(tc.spec, counts,
			plurality.WithSeed(tc.seed), plurality.WithModel(plurality.Poisson),
			plurality.WithEngine(plurality.EngineOccupancy))
		if err != nil {
			t.Fatal(err)
		}
		if fromPop != fromCounts {
			t.Fatalf("%s: population run %+v != counts run %+v", tc.spec, fromPop, fromCounts)
		}
		if !fromCounts.Converged {
			t.Fatalf("%s: counts not driven to consensus: %+v", tc.spec, fromCounts)
		}
		if !pop.ConsensusOn(fromPop.Winner) {
			t.Fatalf("%s: population not written back to consensus: %v", tc.spec, pop.Counts())
		}
	}
}

// TestCountsAPIChurnAndVoter covers the tick-mode paths of the counts
// engine.
func TestCountsAPIChurnAndVoter(t *testing.T) {
	res, err := runCounts("3-majority", []int64{600, 400},
		plurality.WithSeed(5), plurality.WithChurn(0.0002),
		plurality.WithEngine(plurality.EngineOccupancy))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Churns == 0 {
		t.Fatalf("churned counts run: %+v", res)
	}
	res2, err := runCounts("voter", []int64{300, 200},
		plurality.WithSeed(6), plurality.WithEngine(plurality.EngineOccupancy))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged {
		t.Fatalf("voter counts run: %+v", res2)
	}
}

// TestEngineSelectionErrors pins the explicit-failure contract of
// EngineOccupancy on populations and on counts jobs.
func TestEngineSelectionErrors(t *testing.T) {
	counts := []int64{50, 50}
	g, err := plurality.CycleGraph(100)
	if err != nil {
		t.Fatal(err)
	}
	occupancy := plurality.WithEngine(plurality.EngineOccupancy)
	for _, tc := range []struct {
		name   string
		counts []int64
		opts   []plurality.Option
	}{
		{"EngineOccupancy on a cycle", counts, []plurality.Option{occupancy, plurality.WithGraph(g)}},
		{"EngineOccupancy with edge latencies", counts, []plurality.Option{occupancy, plurality.WithEdgeLatency(plurality.ExpEdgeLatency(1))}},
		{"EngineOccupancy with response delays", counts, []plurality.Option{occupancy, plurality.WithResponseDelay(2)}},
		{"degenerate histogram", []int64{1}, []plurality.Option{occupancy}},
		{"EngineOccupancy with the O(n) HeapPoisson scheduler", counts, []plurality.Option{occupancy, plurality.WithModel(plurality.HeapPoisson)}},
	} {
		if _, err := runCounts("two-choices", tc.counts, tc.opts...); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// An effectively-unbounded MaxTime must still complete (tick-mode
	// fallback), not overflow the leap tick budget.
	if res, err := runCounts("two-choices", []int64{60, 40},
		plurality.WithSeed(2), plurality.WithMaxTime(1e18), occupancy); err != nil || !res.Converged {
		t.Errorf("huge MaxTime counts run: res=%+v err=%v", res, err)
	}
	// A latency-configured run must still work under EngineAuto — it
	// falls back to the per-node engine rather than erroring.
	pop, err := plurality.NewPopulation([]int64{60, 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOn(t, "two-choices", pop,
		plurality.WithSeed(4), plurality.WithEdgeLatency(plurality.ExpEdgeLatency(0.1))); err != nil {
		t.Errorf("EngineAuto latency fallback: %v", err)
	}
}
