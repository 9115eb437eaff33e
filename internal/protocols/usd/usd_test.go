package usd

import (
	"math"
	"testing"

	"plurality/internal/graph"
	"plurality/internal/occupancy"
	"plurality/internal/population"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// exactLaw enumerates the law of one USD activation on the k+1-bucket
// histogram (last bucket undecided): the per-pair transition probabilities
// P[from][to] plus the total effective probability. USD samples a single
// node and is deterministic given the sample, so the enumeration is exact —
// the ground truth the closed-form kernel is checked against.
func exactLaw(counts []int64, withSelf bool) (p [][]float64, pEff float64) {
	b := len(counts)
	var n int64
	for _, v := range counts {
		n += v
	}
	nf := float64(n)
	rule := HistRule{Colors: b - 1}
	p = make([][]float64, b)
	for i := range p {
		p[i] = make([]float64, b)
	}
	sampled := make([]population.Color, 1)
	for c := 0; c < b; c++ {
		if counts[c] == 0 {
			continue
		}
		pOwn := float64(counts[c]) / nf
		for d := 0; d < b; d++ {
			nd := float64(counts[d])
			var q float64
			if withSelf {
				q = nd / nf
			} else {
				if d == c {
					nd--
				}
				q = nd / (nf - 1)
			}
			if q <= 0 {
				continue
			}
			sampled[0] = population.Color(d)
			if next := rule.Next(nil, population.Color(c), sampled); int(next) != c {
				p[c][next] += pOwn * q
				pEff += pOwn * q
			}
		}
	}
	return p, pEff
}

// histograms are (k decided buckets, undecided last); they cover empty
// colors, empty and dominant undecided pools.
func testHistograms() [][]int64 {
	return [][]int64{
		{5, 3, 0},
		{4, 3, 2, 6},
		{10, 1, 1, 0},
		{7, 0, 3, 5},
		{1, 1, 2, 9, 4},
		{2, 0, 0, 29},
	}
}

// TestKernelEffectiveProbExact checks the kernel's closed form against full
// enumeration of the rule on a spread of histograms, in both sampling
// modes — the same gate the built-in kernels pass.
func TestKernelEffectiveProbExact(t *testing.T) {
	for _, counts := range testHistograms() {
		for _, withSelf := range []bool{false, true} {
			_, wantEff := exactLaw(counts, withSelf)
			var n int64
			for _, v := range counts {
				n += v
			}
			gotEff := (&Kernel{}).EffectiveProb(counts, n, withSelf)
			if math.Abs(gotEff-wantEff) > 1e-12 {
				t.Errorf("withSelf=%v counts=%v: EffectiveProb = %.15f, enumeration %.15f",
					withSelf, counts, gotEff, wantEff)
			}
		}
	}
}

// TestKernelTransitionDistribution checks SampleTransition's empirical
// (from, to) frequencies on one prepared histogram against the exact
// conditional law by chi-square at the 99.9th percentile. Deterministic
// seeds: a failure means a wrong kernel, not bad luck.
func TestKernelTransitionDistribution(t *testing.T) {
	counts := []int64{6, 3, 2, 4} // 3 colors + 4 undecided
	var n int64
	for _, v := range counts {
		n += v
	}
	const draws = 200_000
	b := len(counts)
	for _, withSelf := range []bool{false, true} {
		p, pEff := exactLaw(counts, withSelf)
		r := rng.New(99)
		observed := make([]int, b*b)
		kern := &Kernel{}
		if got := kern.EffectiveProb(counts, n, withSelf); math.Abs(got-pEff) > 1e-12 {
			t.Fatalf("withSelf=%v: EffectiveProb = %.15f, enumeration %.15f", withSelf, got, pEff)
		}
		for i := 0; i < draws; i++ {
			from, to := kern.SampleTransition(r)
			if from == to || from < 0 || to < 0 || from >= b || to >= b {
				t.Fatalf("SampleTransition returned (%d, %d)", from, to)
			}
			observed[from*b+to]++
		}
		var stat float64
		df := -1 // cells sum to draws, so one degree is lost
		for from := 0; from < b; from++ {
			for to := 0; to < b; to++ {
				expected := p[from][to] / pEff * draws
				if expected < 5 {
					if observed[from*b+to] > 0 && expected == 0 {
						t.Errorf("withSelf=%v: impossible transition (%d→%d) sampled %d times",
							withSelf, from, to, observed[from*b+to])
					}
					continue
				}
				d := float64(observed[from*b+to]) - expected
				stat += d * d / expected
				df++
			}
		}
		if df < 1 {
			t.Fatalf("degenerate chi-square setup")
		}
		// Wilson–Hilferty 99.9th percentile approximation.
		z := 3.0902
		dff := float64(df)
		crit := dff * math.Pow(1-2/(9*dff)+z*math.Sqrt(2/(9*dff)), 3)
		if stat > crit {
			t.Errorf("withSelf=%v: transition chi-square %.1f > %.1f (df %d)", withSelf, stat, crit, df)
		}
	}
}

// TestHistRuleMatchesPerNodeRule: the bucket-convention rule must be the
// per-node rule under the mapping None ↔ bucket k, for every (own, sample)
// pair.
func TestHistRuleMatchesPerNodeRule(t *testing.T) {
	const k = 3
	hist := HistRule{Colors: k}
	toBucket := func(c population.Color) population.Color {
		if c == population.None {
			return k
		}
		return c
	}
	states := []population.Color{0, 1, 2, population.None}
	for _, own := range states {
		for _, s := range states {
			got := hist.Next(nil, toBucket(own), []population.Color{toBucket(s)})
			want := toBucket(Rule{}.Next(nil, own, []population.Color{s}))
			if got != want {
				t.Errorf("own=%d sample=%d: hist rule %d, per-node rule maps to %d", own, s, got, want)
			}
		}
	}
}

// TestKernelWalkConservesHistogram applies the kernel's transitions
// directly and checks the conservation invariant the histogram engines
// lean on: holders + undecided == n after every single transition.
func TestKernelWalkConservesHistogram(t *testing.T) {
	counts := []int64{40, 30, 20, 10}
	var n int64
	for _, v := range counts {
		n += v
	}
	r := rng.New(7)
	kern := &Kernel{}
	for step := 0; step < 5000; step++ {
		kern.EffectiveProb(counts, n, false)
		from, to := kern.SampleTransition(r)
		counts[from]--
		counts[to]++
		var total int64
		for _, v := range counts {
			if v < 0 {
				t.Fatalf("step %d: negative bucket after (%d→%d): %v", step, from, to, counts)
			}
			total += v
		}
		if total != n {
			t.Fatalf("step %d: histogram total %d != n=%d after (%d→%d): %v", step, total, n, from, to, counts)
		}
		if counts[from] == 0 && from != len(counts)-1 {
			// A color can die; the walk continues regardless.
			continue
		}
	}
}

// TestPerNodeConservesHistogram is the per-node half of the conservation
// property: across every delivered tick of a USD run (the OnTick observer
// forces the per-node engine), holders + undecided must equal n, and the
// cached counts must stay consistent with the color vector.
func TestPerNodeConservesHistogram(t *testing.T) {
	const n = 300
	pop, err := population.FromCounts([]int64{150, 90, 60})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.NewComplete(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.NewPoisson(n, 1, rng.At(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	sawUndecided := false
	res, err := dynamics.RunAsync(pop, Rule{}, dynamics.AsyncConfig{
		Graph:     g,
		Scheduler: s,
		Rand:      rng.At(5, 1),
		MaxTime:   1e6,
		OnTick: func(_ sched.Tick, p *population.Population) {
			total := p.Undecided()
			for c := 0; c < p.K(); c++ {
				total += p.Count(population.Color(c))
			}
			if total != n {
				t.Fatalf("holders + undecided = %d != n = %d mid-run", total, n)
			}
			if p.Undecided() > 0 {
				sawUndecided = true
			}
		},
	})
	if err != nil || !res.Done {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
	if !sawUndecided {
		t.Fatal("USD run never parked a node in the undecided state")
	}
	if res.Undecided != 0 || pop.Undecided() != 0 {
		t.Fatalf("consensus with undecided nodes left: %+v, pop undecided %d", res, pop.Undecided())
	}
	if !pop.ConsensusOn(res.Winner) {
		t.Fatalf("winner %d is not the consensus color; counts %v", res.Winner, pop.Counts())
	}
}

// TestPerNodeSyncConverges: the synchronous engine commits staged None
// states literally (syncsim.CommitAll), so sync USD runs work end to end.
func TestPerNodeSyncConverges(t *testing.T) {
	pop, err := population.FromCounts([]int64{60, 30, 30})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.NewComplete(120)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dynamics.RunSync(pop, Rule{}, dynamics.SyncConfig{
		Graph:     g,
		Rand:      rng.New(9),
		MaxRounds: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Undecided != 0 || !pop.ConsensusOn(res.Winner) {
		t.Fatalf("res = %+v, counts %v, undecided %d", res, pop.Counts(), pop.Undecided())
	}
}

// TestOccupancyRunConverges: the count-collapsed engine (leap and tick
// modes) drives USD to consensus on the plurality under bias, ending with
// an empty undecided pool and a conserved histogram.
func TestOccupancyRunConverges(t *testing.T) {
	for _, force := range []bool{false, true} {
		counts := []int64{600, 300, 300}
		s, err := sched.NewPoisson(1200, 1, rng.At(11, 0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := occupancy.Run(counts, Rule{}, occupancy.Config{
			Scheduler: s,
			Rand:      rng.At(11, 1),
			MaxTime:   1e6,
			ForceTick: force,
		})
		if err != nil {
			t.Fatalf("force=%v: %v", force, err)
		}
		if !res.Done || res.Undecided != 0 {
			t.Fatalf("force=%v: %+v", force, res)
		}
		var total int64
		for c, v := range counts {
			total += v
			if v != 0 && population.Color(c) != res.Winner {
				t.Fatalf("force=%v: final histogram %v not a consensus on %d", force, counts, res.Winner)
			}
		}
		if total != 1200 {
			t.Fatalf("force=%v: histogram total %d != 1200", force, total)
		}
	}
}

// TestOccupancyRunInitialUndecided: Config.Undecided seeds the hidden
// bucket; the run still converges and conserves holders + undecided == n.
func TestOccupancyRunInitialUndecided(t *testing.T) {
	counts := []int64{500, 250}
	s, err := sched.NewPoisson(1000, 1, rng.At(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := occupancy.Run(counts, Rule{}, occupancy.Config{
		Scheduler: s,
		Rand:      rng.At(3, 1),
		MaxTime:   1e6,
		Undecided: 250,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Undecided != 0 || counts[res.Winner] != 1000 {
		t.Fatalf("res = %+v, counts %v", res, counts)
	}
}

// TestOccupancyRejectsAllUndecided: a start without a single decided
// holder is an absorbing dead state and must be rejected, as must a
// negative undecided count and an undecided count on a rule without an
// undecided state.
func TestOccupancyRejectsBadUndecided(t *testing.T) {
	mk := func(n int) sched.Scheduler {
		s, err := sched.NewPoisson(n, 1, rng.At(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if _, err := occupancy.Run([]int64{0, 0}, Rule{}, occupancy.Config{
		Scheduler: mk(10), Rand: rng.At(1, 1), MaxTime: 1, Undecided: 10,
	}); err == nil {
		t.Error("all-undecided start: no error")
	}
	if _, err := occupancy.Run([]int64{5, 5}, Rule{}, occupancy.Config{
		Scheduler: mk(10), Rand: rng.At(1, 1), MaxTime: 1, Undecided: -1,
	}); err == nil {
		t.Error("negative undecided: no error")
	}
}
