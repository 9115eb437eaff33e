package plurality_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"plurality"
	"plurality/internal/graph"
)

// jumpChainGolden is one pinned run of the exact count-level jump chain.
type jumpChainGolden struct {
	spec      string
	n, k      int
	engine    plurality.Engine
	model     plurality.Model
	withSelf  bool
	maxTime   float64 // 0 keeps the default budget
	ticks     int64
	timeBits  uint64
	winner    plurality.Color
	undecided int64
}

func (g jumpChainGolden) name() string {
	return fmt.Sprintf("%s/n=%d/k=%d/engine=%d/model=%d/self=%v/maxTime=%g", g.spec, g.n, g.k, g.engine, g.model, g.withSelf, g.maxTime)
}

// jumpChainGoldens pins the exact jump chain — every kerneled rule, both
// sampling modes, both asynchronous models — bit for bit. The last rows run
// the hybrid engine at a size that keeps it in its exact regime throughout.
// Captured before the kernels became two-phase; a kernel change must leave
// every row unchanged.
var jumpChainGoldens = []jumpChainGolden{
	{"two-choices", 20000, 4, plurality.EngineOccupancy, plurality.Sequential, false, 0, 289930, 0x402cfe2eb1c432ca, 0, 0},
	{"two-choices", 20000, 4, plurality.EngineOccupancy, plurality.Sequential, true, 0, 278948, 0x402be50b0f27bb30, 0, 0},
	{"two-choices", 20000, 4, plurality.EngineOccupancy, plurality.Poisson, false, 0, 269338, 0x402aedd061b46897, 0, 0},
	{"two-choices", 20000, 4, plurality.EngineOccupancy, plurality.Poisson, true, 0, 249265, 0x4028f99ba9f0ac31, 0, 0},
	{"voter", 300, 4, plurality.EngineOccupancy, plurality.Sequential, false, 0, 47568, 0x4063d1d0369d036a, 2, 0},
	{"voter", 300, 4, plurality.EngineOccupancy, plurality.Sequential, true, 0, 70331, 0x406d4dddddddddde, 3, 0},
	{"voter", 300, 4, plurality.EngineOccupancy, plurality.Poisson, false, 0, 120692, 0x40790229ce754134, 3, 0},
	{"voter", 300, 4, plurality.EngineOccupancy, plurality.Poisson, true, 0, 246331, 0x408993f30aedda7f, 2, 0},
	{"3-majority", 4000, 16, plurality.EngineOccupancy, plurality.Sequential, false, 0, 82101, 0x4034866666666666, 0, 0},
	{"3-majority", 4000, 16, plurality.EngineOccupancy, plurality.Sequential, true, 0, 76788, 0x4033325e353f7cee, 0, 0},
	{"3-majority", 4000, 16, plurality.EngineOccupancy, plurality.Poisson, false, 0, 93065, 0x403740d9b69d0867, 0, 0},
	{"3-majority", 4000, 16, plurality.EngineOccupancy, plurality.Poisson, true, 0, 91715, 0x4036e4cfba1c390c, 0, 0},
	{"j-majority:5", 1000, 8, plurality.EngineOccupancy, plurality.Sequential, false, 0, 10073, 0x402424dd2f1a9fbe, 0, 0},
	{"j-majority:5", 1000, 8, plurality.EngineOccupancy, plurality.Sequential, true, 0, 8027, 0x40200d4fdf3b645a, 0, 0},
	{"j-majority:5", 1000, 8, plurality.EngineOccupancy, plurality.Poisson, false, 0, 9104, 0x402208ea2e877f8a, 0, 0},
	{"j-majority:5", 1000, 8, plurality.EngineOccupancy, plurality.Poisson, true, 0, 10324, 0x402481b29bd7b68e, 0, 0},
	{"usd", 20000, 4, plurality.EngineOccupancy, plurality.Sequential, false, 0, 446038, 0x40364d460aa64c30, 0, 0},
	{"usd", 20000, 4, plurality.EngineOccupancy, plurality.Sequential, true, 0, 370252, 0x403283367a0f9097, 0, 0},
	{"usd", 20000, 4, plurality.EngineOccupancy, plurality.Poisson, false, 0, 381242, 0x40330a7ad159cc62, 0, 0},
	{"usd", 20000, 4, plurality.EngineOccupancy, plurality.Poisson, true, 0, 372636, 0x4032a9f289d58acb, 0, 0},
	{"usd", 20000, 4, plurality.EngineOccupancy, plurality.Sequential, false, 3, 60001, 0x4008000000000000, 0, 7750},
	{"3-majority", 4000, 16, plurality.EngineOccupancy, plurality.Poisson, true, 5, 20031, 0x4013ffc0e98cbe18, 0, 0},
	{"two-choices", 3000, 3, plurality.EngineLeap, plurality.Poisson, false, 0, 28407, 0x4022f020c49ba5e3, 0, 0},
	{"usd", 3000, 3, plurality.EngineLeap, plurality.Sequential, true, 0, 51984, 0x403153f7ced91687, 0, 0},
}

// TestJumpChainGolden runs every pinned configuration through Job.Run and
// compares Ticks, the bits of Time, Winner and Undecided.
func TestJumpChainGolden(t *testing.T) {
	for i, g := range jumpChainGoldens {
		counts, err := plurality.Biased(g.n, g.k, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := []plurality.Option{
			plurality.WithSeed(uint64(1000 + i)),
			plurality.WithEngine(g.engine),
			plurality.WithModel(g.model),
			plurality.WithGraph(graph.Complete{Nodes: g.n, WithSelf: g.withSelf}),
		}
		if g.maxTime > 0 {
			opts = append(opts, plurality.WithMaxTime(g.maxTime))
		}
		job, err := plurality.NewJob(g.spec, counts, opts...)
		if err != nil {
			t.Fatalf("%s: NewJob: %v", g.name(), err)
		}
		rep, err := job.Run(context.Background())
		if err != nil && !errors.Is(err, plurality.ErrTimeLimit) {
			t.Fatalf("%s: Run: %v", g.name(), err)
		}
		got := g
		got.ticks, got.timeBits, got.winner, got.undecided = rep.Ticks, math.Float64bits(rep.Time), rep.Winner, rep.Undecided
		if got != g {
			t.Errorf("%s: got ticks=%d time=%#x (%v) winner=%d undecided=%d, want ticks=%d time=%#x winner=%d undecided=%d",
				g.name(), got.ticks, got.timeBits, rep.Time, got.winner, got.undecided,
				g.ticks, g.timeBits, g.winner, g.undecided)
		}
	}
}
