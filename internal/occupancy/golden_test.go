package occupancy_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"plurality/internal/occupancy"
	"plurality/internal/protocols/jmajority"
	"plurality/internal/protocols/threemajority"
	"plurality/internal/protocols/twochoices"
	"plurality/internal/protocols/usd"
	"plurality/internal/protocols/voter"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// leapGolden is one pinned hybrid-engine run of a protocol package's real
// kernel.
type leapGolden struct {
	rule      occupancy.Rule
	counts    []int64 // opinion buckets
	undecided int64   // initially undecided nodes (USD only)
	poisson   bool
	withSelf  bool
	maxTime   float64 // 0 selects 1e4, far past consensus
	// Pinned outcome.
	ticks            int64
	timeBits         uint64
	winner           int
	endUndecided     int64
	exactTransitions int64
}

func (g leapGolden) name() string {
	return fmt.Sprintf("%s/counts=%v/undecided=%d/poisson=%v/self=%v/maxTime=%g", g.rule.Name(), g.counts, g.undecided, g.poisson, g.withSelf, g.maxTime)
}

// leapGoldens pins the hybrid engine's exact jump chain per kernel,
// including ExactTransitions, which the public Report does not carry. The
// small histograms stay below the exact cutoff throughout; the n = 10⁶ rows
// leap first and walk the exact chain near absorption, so the flow law and
// the exact kernel share one instance across regime switches.
var leapGoldens = []leapGolden{
	{rule: twochoices.Rule{}, counts: []int64{1500, 800, 700},
		ticks: 34900, timeBits: 0x4027444444444444, winner: 0, endUndecided: 0, exactTransitions: 2538},
	{rule: twochoices.Rule{}, counts: []int64{1500, 800, 700}, poisson: true, withSelf: true,
		ticks: 32446, timeBits: 0x4025a1735ee402bb, winner: 0, endUndecided: 0, exactTransitions: 2565},
	{rule: voter.Rule{}, counts: []int64{150, 100, 50}, withSelf: true,
		ticks: 29141, timeBits: 0x405848bf258bf259, winner: 0, endUndecided: 0, exactTransitions: 10406},
	{rule: threemajority.Rule{}, counts: []int64{300, 250, 250, 200, 200, 200, 150, 150}, poisson: true,
		ticks: 30812, timeBits: 0x40321fecb9865320, winner: 0, endUndecided: 0, exactTransitions: 11974},
	{rule: jmajority.Rule{J: 5}, counts: []int64{200, 150, 150, 150, 100, 100, 100, 50},
		ticks: 9077, timeBits: 0x4022276c8b439581, winner: 0, endUndecided: 0, exactTransitions: 2668},
	{rule: jmajority.Rule{J: 5}, counts: []int64{200, 150, 150, 150, 100, 100, 100, 50}, poisson: true, withSelf: true,
		ticks: 9086, timeBits: 0x40222c083126e979, winner: 0, endUndecided: 0, exactTransitions: 3139},
	{rule: usd.Rule{}, counts: []int64{900, 700, 600}, undecided: 800, poisson: true,
		ticks: 75744, timeBits: 0x40393f7ced916873, winner: 0, endUndecided: 0, exactTransitions: 15502},
	{rule: usd.Rule{}, counts: []int64{900, 700, 600}, undecided: 800, withSelf: true,
		ticks: 57837, timeBits: 0x4033476c8b439581, winner: 0, endUndecided: 0, exactTransitions: 14260},
	{rule: usd.Rule{}, counts: []int64{900, 700, 600}, undecided: 800, maxTime: 2,
		ticks: 6000, timeBits: 0x4000000000000000, winner: 0, endUndecided: 1174, exactTransitions: 3068},
	{rule: threemajority.Rule{}, counts: []int64{400_000, 300_000, 300_000}, poisson: true,
		ticks: 18000204, timeBits: 0x4032000d5e8d5411, winner: 0, endUndecided: 0, exactTransitions: 2055},
	{rule: jmajority.Rule{J: 5}, counts: []int64{400_000, 300_000, 300_000},
		ticks: 15061327, timeBits: 0x402e1f6640a6b93d, winner: 0, endUndecided: 0, exactTransitions: 2119},
}

// TestHybridJumpChainGolden compares every pinned run bit for bit: ticks,
// the bits of the final time, the winner, the undecided count and the
// number of exact transitions.
func TestHybridJumpChainGolden(t *testing.T) {
	for i, g := range leapGoldens {
		counts := append([]int64(nil), g.counts...)
		n := g.undecided
		for _, v := range counts {
			n += v
		}
		var s sched.Scheduler
		var err error
		if g.poisson {
			s, err = sched.NewPoisson(int(n), 1, rng.At(uint64(500+i), 0))
		} else {
			s, err = sched.NewSequential(int(n), rng.At(uint64(500+i), 0))
		}
		if err != nil {
			t.Fatal(err)
		}
		maxTime := g.maxTime
		if maxTime == 0 {
			maxTime = 1e4
		}
		res, err := occupancy.RunLeap(counts, g.rule, occupancy.Config{
			WithSelf:  g.withSelf,
			Scheduler: s,
			Rand:      rng.At(uint64(500+i), 1),
			MaxTime:   maxTime,
			Undecided: g.undecided,
		}, occupancy.LeapConfig{})
		if err != nil && !errors.Is(err, occupancy.ErrTimeLimit) {
			t.Fatalf("%s: %v", g.name(), err)
		}
		got := g
		got.ticks, got.timeBits, got.winner = res.Ticks, math.Float64bits(res.Time), int(res.Winner)
		got.endUndecided, got.exactTransitions = res.Undecided, res.ExactTransitions
		if got.ticks != g.ticks || got.timeBits != g.timeBits || got.winner != g.winner ||
			got.endUndecided != g.endUndecided || got.exactTransitions != g.exactTransitions {
			t.Errorf("%s: got ticks=%d time=%#x winner=%d undecided=%d exact=%d, want ticks=%d time=%#x winner=%d undecided=%d exact=%d",
				g.name(), got.ticks, got.timeBits, got.winner, got.endUndecided, got.exactTransitions,
				g.ticks, g.timeBits, g.winner, g.endUndecided, g.exactTransitions)
		}
	}
}
