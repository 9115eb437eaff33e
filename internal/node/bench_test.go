package node

import (
	"runtime"
	"testing"
)

// mallocs reports the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkFabricRun times whole clusters on the in-process fabric and
// reports the per-message cost: ns/msg and allocs/msg, where a message is
// one pull request.
func BenchmarkFabricRun(b *testing.B) {
	for _, bc := range []struct {
		name   string
		spec   string
		counts []int64
		faults Faults
	}{
		{"two-choices/clean/n=512", "two-choices", []int64{384, 128}, Faults{}},
		{"usd/clean/n=512", "usd", []int64{384, 128}, Faults{}},
		{"two-choices/lossy/n=1024", "two-choices", []int64{768, 256}, Faults{Latency: 0.05, Drop: 0.01}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var msgs int64
			before := mallocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runFabricCluster(b, bc.spec, bc.counts, uint64(i+1), bc.faults)
				if err != nil {
					b.Fatal(err)
				}
				msgs += res.Messages
			}
			b.StopTimer()
			allocs := mallocs() - before
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
			b.ReportMetric(float64(allocs)/float64(msgs), "allocs/msg")
		})
	}
}

// TestFabricRunAllocsScaleWithNodes bounds the heap allocations of one
// clean-fabric cluster at n = 512 by 32 per node. The run sends about 117
// pull requests per node, so the bound holds only when the runtime
// allocates per node (at Bind and Start), never per event or per message.
func TestFabricRunAllocsScaleWithNodes(t *testing.T) {
	const n = 512
	runtime.GC()
	before := mallocs()
	res, err := runFabricCluster(t, "two-choices", []int64{384, 128}, 1, Faults{})
	allocs := mallocs() - before
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(32 * n); allocs > limit {
		t.Fatalf("one clean n=%d cluster (%d messages) made %d allocations, want <= %d (32 per node)",
			n, res.Messages, allocs, limit)
	}
	t.Logf("n=%d: %d allocations, %d messages (%.2f allocs/node)", n, allocs, res.Messages, float64(allocs)/n)
}
