package node

import (
	"fmt"
	"math"
	"testing"

	"plurality/internal/population"
)

// goldenRow is the deterministic part of one fabric cluster Result; the two
// times are kept as exact float64 bit patterns.
type goldenRow struct {
	ticks, messages, responses, dropped int64
	halted, decided                     int
	winner                              population.Color
	consensusBits, timeBits             uint64
}

func (r goldenRow) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %d, %d, %#x, %#x}",
		r.ticks, r.messages, r.responses, r.dropped, r.halted, r.decided, r.winner, r.consensusBits, r.timeBits)
}

func rowOf(res Result) goldenRow {
	return goldenRow{
		ticks: res.Ticks, messages: res.Messages, responses: res.Responses, dropped: res.Dropped,
		halted: res.Halted, decided: res.Decided, winner: res.Winner,
		consensusBits: math.Float64bits(res.ConsensusTime), timeBits: math.Float64bits(res.Time),
	}
}

// goldenFaults are the fabric settings of the golden grid: clean, lossy,
// and lossy with reordering.
var goldenFaults = []struct {
	name string
	f    Faults
}{
	{"clean", Faults{}},
	{"lossy", Faults{Latency: 0.05, Drop: 0.01}},
	{"reorder", Faults{Latency: 0.1, Drop: 0.05, Reorder: 0.2}},
}

// TestFabricGoldenBitIdentical pins the exact Result of fixed-seed fabric
// clusters: {two-choices, usd, 3-majority} × {clean, lossy, reorder} × seeds
// 1–3 on a three-color 48/32/16 start. The values were captured from the
// container/heap event queue with one closure and one channel per message;
// the typed event queue, the reusable per-node waiters and the timeout
// cancellation change neither the events nor their (at, seq) firing order,
// so not a single bit may move.
func TestFabricGoldenBitIdentical(t *testing.T) {
	want := map[string]goldenRow{
		"two-choices/clean/seed1":   {4992, 9984, 9984, 0, 96, 96, 0, 0x402475df077ed9e2, 0x404fc3abc5ac775c},
		"two-choices/clean/seed2":   {5041, 10082, 10082, 0, 96, 96, 0, 0x401f256817e42242, 0x404f68d4d5610851},
		"two-choices/clean/seed3":   {4819, 9638, 9638, 0, 96, 96, 0, 0x4014f8a7784f8cc1, 0x404e135b2a687eb7},
		"two-choices/lossy/seed1":   {5674, 11348, 11124, 224, 96, 96, 0, 0x402bce92cdce4c0f, 0x405cb4319b8f837e},
		"two-choices/lossy/seed2":   {5574, 11148, 10934, 214, 96, 96, 0, 0x402fd10841fdc062, 0x405c1c5d7bca3562},
		"two-choices/lossy/seed3":   {5931, 11862, 11636, 226, 96, 96, 0, 0x40357e6bc1f00459, 0x405a5a9b7ca622f9},
		"two-choices/reorder/seed1": {6707, 13414, 12114, 1300, 96, 96, 0, 0x404404cd07a5e16a, 0x4070cc81218effca},
		"two-choices/reorder/seed2": {6449, 12898, 11614, 1284, 96, 96, 0, 0x403ffa68e728d934, 0x406df37633142127},
		"two-choices/reorder/seed3": {6689, 13378, 12093, 1285, 96, 96, 0, 0x403d62175a5b1866, 0x406f2dd2ae262b39},
		"usd/clean/seed1":           {4998, 4998, 4998, 0, 96, 96, 0, 0x402670e45129d11e, 0x4050d1ebb08e976e},
		"usd/clean/seed2":           {4841, 4841, 4841, 0, 96, 96, 0, 0x402480953b0d2728, 0x404df080511b5568},
		"usd/clean/seed3":           {5269, 5269, 5269, 0, 96, 96, 0, 0x402abdfb012a2328, 0x405096490d8d1e16},
		"usd/lossy/seed1":           {5414, 5414, 5311, 103, 96, 96, 0, 0x4031ba520d2e0bbb, 0x4058db870e5cc3ae},
		"usd/lossy/seed2":           {5204, 5204, 5108, 96, 96, 96, 0, 0x402b5e7234072910, 0x4055c3af04378d37},
		"usd/lossy/seed3":           {5549, 5549, 5448, 101, 96, 96, 0, 0x402d427a027b797c, 0x4058109957e36587},
		"usd/reorder/seed1":         {7048, 7048, 6397, 651, 96, 96, 1, 0x40495690b1270ed0, 0x4068178abc44c31f},
		"usd/reorder/seed2":         {6051, 6051, 5441, 610, 96, 96, 0, 0x404004acbbf23f45, 0x40662b946f52bca2},
		"usd/reorder/seed3":         {6404, 6404, 5790, 614, 96, 96, 0, 0x4042bf176b2fcad5, 0x4069f2ba166b7721},
		"3-majority/clean/seed1":    {5057, 15171, 15171, 0, 96, 96, 0, 0x40218915d7784093, 0x404fe36a67c170bb},
		"3-majority/clean/seed2":    {5022, 15066, 15066, 0, 96, 96, 0, 0x401a43c21621be0b, 0x404e2fc7f6c0b10d},
		"3-majority/clean/seed3":    {4921, 14763, 14763, 0, 96, 96, 0, 0x4014f8a7784f8cc1, 0x40501ffc940d711f},
		"3-majority/lossy/seed1":    {6079, 18237, 17857, 380, 96, 96, 0, 0x402739e5de853ca0, 0x40603cb233932962},
		"3-majority/lossy/seed2":    {6497, 19491, 19132, 359, 96, 96, 0, 0x403c9468cd616804, 0x40606d41b1dd7016},
		"3-majority/lossy/seed3":    {6153, 18459, 18111, 348, 96, 96, 0, 0x4028412cf891dd48, 0x4061b48e7735d82b},
		"3-majority/reorder/seed1":  {8097, 24291, 21917, 2374, 96, 96, 0, 0x4046e63d50015b43, 0x4074aa6b84760278},
		"3-majority/reorder/seed2":  {7493, 22479, 20269, 2210, 96, 96, 0, 0x404d418f035a8e69, 0x4074aebf8cbdd15e},
		"3-majority/reorder/seed3":  {7681, 23043, 20855, 2188, 96, 96, 0, 0x4048275eaec81c91, 0x4073ccddc26deb80},
	}
	for _, spec := range []string{"two-choices", "usd", "3-majority"} {
		for _, gf := range goldenFaults {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", spec, gf.name, seed)
				t.Run(name, func(t *testing.T) {
					res, err := runFabricCluster(t, spec, []int64{48, 32, 16}, seed, gf.f)
					if err != nil {
						t.Fatal(err)
					}
					got := rowOf(res)
					w, ok := want[name]
					if !ok || got != w {
						t.Fatalf("fabric result drifted:\n got  %q: %v,\n want %v", name, got, w)
					}
				})
			}
		}
	}
}
