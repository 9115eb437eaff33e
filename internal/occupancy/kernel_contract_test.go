package occupancy_test

import (
	"math"
	"testing"

	"plurality/internal/occupancy"
	"plurality/internal/protocols/jmajority"
	"plurality/internal/protocols/threemajority"
	"plurality/internal/protocols/twochoices"
	"plurality/internal/protocols/usd"
	"plurality/internal/protocols/voter"
	"plurality/internal/rng"
)

// kernelCase is a protocol package's kernel with two histograms of
// different sizes to prepare in turn (USD's last bucket is its undecided
// pool).
type kernelCase struct {
	name string
	rule occupancy.Kerneled
	a, b []int64
}

func kernelCases() []kernelCase {
	return []kernelCase{
		{"two-choices", twochoices.Rule{}, []int64{50, 30, 15, 5}, []int64{1, 70, 0, 20, 9}},
		{"voter", voter.Rule{}, []int64{50, 30, 15, 5}, []int64{1, 70, 0, 20, 9}},
		{"3-majority", threemajority.Rule{}, []int64{50, 30, 15, 5}, []int64{1, 70, 0, 20, 9}},
		{"j-majority:5", jmajority.Rule{J: 5}, []int64{50, 30, 15, 5}, []int64{1, 70, 0, 20, 9}},
		{"j-majority:2", jmajority.Rule{J: 2}, []int64{1, 30, 15, 5}, []int64{40, 1, 0, 20, 9}},
		{"usd", usd.HistRule{Colors: 3}, []int64{50, 30, 15, 5}, []int64{1, 70, 0, 20, 9}},
	}
}

func total(counts []int64) int64 {
	var n int64
	for _, v := range counts {
		n += v
	}
	return n
}

// draws prepares kern on counts and returns the bits of the effective
// probability plus 64 (from, to) draws from a fixed stream.
func draws(kern occupancy.Kernel, counts []int64, withSelf bool) (uint64, [64][2]int) {
	p := kern.EffectiveProb(counts, total(counts), withSelf)
	r := rng.New(7)
	var out [64][2]int
	for i := range out {
		out[i][0], out[i][1] = kern.SampleTransition(r)
	}
	return math.Float64bits(p), out
}

// TestKernelRePrepareMatchesFresh: a kernel that prepared histogram A,
// then B (a different size, growing its scratch) and its flow law, then A
// again must report the same probability and sample exactly what a fresh
// kernel samples on A — no state leaks from one preparation into the next.
func TestKernelRePrepareMatchesFresh(t *testing.T) {
	for _, kc := range kernelCases() {
		for _, withSelf := range []bool{false, true} {
			fresh := kc.rule.OccupancyKernel()
			reused := kc.rule.OccupancyKernel()
			if fresh == reused {
				t.Fatalf("%s: OccupancyKernel returned one instance twice", kc.name)
			}
			wantP, want := draws(fresh, kc.a, withSelf)

			r := rng.New(3)
			reused.EffectiveProb(kc.a, total(kc.a), withSelf)
			reused.SampleTransition(r)
			reused.EffectiveProb(kc.b, total(kc.b), withSelf)
			reused.SampleTransition(r)
			if fk, ok := reused.(occupancy.FlowKernel); ok {
				x := make([]float64, len(kc.b))
				for c, v := range kc.b {
					x[c] = float64(v) / float64(total(kc.b))
				}
				fk.Flows(x, make([]float64, len(x)*len(x)))
			}
			gotP, got := draws(reused, kc.a, withSelf)
			if gotP != wantP {
				t.Errorf("%s withSelf=%v: re-prepared EffectiveProb bits %#x, fresh %#x", kc.name, withSelf, gotP, wantP)
			}
			if got != want {
				t.Errorf("%s withSelf=%v: re-prepared draws differ from a fresh kernel's:\n got %v\nwant %v", kc.name, withSelf, got, want)
			}
		}
	}
}

// TestKernelPrepareSampleZeroAllocs: once a kernel has seen a histogram
// size, one prepare + sample cycle allocates nothing.
func TestKernelPrepareSampleZeroAllocs(t *testing.T) {
	for _, kc := range kernelCases() {
		for _, withSelf := range []bool{false, true} {
			kern := kc.rule.OccupancyKernel()
			n := total(kc.a)
			r := rng.New(5)
			cycle := func() {
				kern.EffectiveProb(kc.a, n, withSelf)
				kern.SampleTransition(r)
			}
			cycle() // warm the scratch
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Errorf("%s withSelf=%v: %.1f allocations per prepare + sample, want 0", kc.name, withSelf, allocs)
			}
		}
	}
}

// BenchmarkKernelTransition measures one exact jump-chain transition —
// prepare the histogram, draw (from, to) — per kernel at the shapes the
// repository benchmark's collapsed mix runs, on a fixed mid-run histogram.
func BenchmarkKernelTransition(b *testing.B) {
	spread := func(n int64, k int, lead int64) []int64 {
		counts := make([]int64, k)
		counts[0] = lead
		rest := n - lead
		for c := 1; c < k; c++ {
			counts[c] = rest / int64(k-1)
		}
		counts[k-1] += rest - rest/int64(k-1)*int64(k-1)
		return counts
	}
	for _, bc := range []struct {
		name   string
		rule   occupancy.Kerneled
		counts []int64
	}{
		{"3-majority/n=4e4/k=16", threemajority.Rule{}, spread(40_000, 16, 3_100)},
		{"j-majority:5/n=1e3/k=8", jmajority.Rule{J: 5}, spread(1_000, 8, 200)},
		{"usd/n=2e5/k=4", usd.HistRule{Colors: 4}, append(spread(190_000, 4, 70_000), 10_000)},
		{"two-choices/n=2e5/k=4", twochoices.Rule{}, spread(200_000, 4, 80_000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			kern := bc.rule.OccupancyKernel()
			n := total(bc.counts)
			r := rng.New(1)
			if p := kern.EffectiveProb(bc.counts, n, false); !(p > 0) { // sizes the scratch
				b.Fatalf("effective probability %v", p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kern.EffectiveProb(bc.counts, n, false)
				kern.SampleTransition(r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/transition")
		})
	}
}
