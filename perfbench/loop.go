package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// work is the deterministic part of an op's result. Summed over a fixed
// prefix of the op sequence it fingerprints the work a run did: two runs
// with the same seed must print the same fingerprint.
type work struct {
	Ticks    int64
	Messages int64
	Rounds   int64
}

func (w *work) add(o work) {
	w.Ticks += o.Ticks
	w.Messages += o.Messages
	w.Rounds += o.Rounds
}

// opRecord is one completed op.
type opRecord struct {
	idx  int
	kind string
	lat  time.Duration
	w    work
	err  error
}

// loopResult is what one closed-loop pass measured.
type loopResult struct {
	recs    []opRecord // sorted by op index
	elapsed time.Duration
	used    resources // process-wide use over the pass
}

// closedLoop runs drivers goroutines, each taking the next op index and
// executing it, until dur has elapsed (or maxOps ops were started when
// maxOps > 0). Ops started before the deadline run to completion, and the
// pass ends when the last one does.
func closedLoop(ctx context.Context, drivers int, dur time.Duration, maxOps int, inst instance, tr *tracer) loopResult {
	var next atomic.Int64
	perDriver := make([][]opRecord, drivers)
	before := sampleResources()
	start := time.Now()
	var wg sync.WaitGroup
	for d := range drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if maxOps > 0 && i >= maxOps {
					return
				}
				k := inst.kind(i)
				root := tr.begin("op/"+k, -1, i)
				t0 := time.Now()
				w, err := inst.op(ctx, i, tr, root)
				lat := time.Since(t0)
				tr.end(root)
				perDriver[d] = append(perDriver[d], opRecord{idx: i, kind: k, lat: lat, w: w, err: err})
			}
		}()
	}
	wg.Wait()
	res := loopResult{elapsed: time.Since(start), used: sampleResources().minus(before)}
	for _, recs := range perDriver {
		res.recs = append(res.recs, recs...)
	}
	sort.Slice(res.recs, func(i, j int) bool { return res.recs[i].idx < res.recs[j].idx })
	return res
}

// failures counts the failed ops.
func (r loopResult) failures() int {
	n := 0
	for _, rec := range r.recs {
		if rec.err != nil {
			n++
		}
	}
	return n
}

// firstErrors returns the first n failure messages.
func (r loopResult) firstErrors(n int) []string {
	var out []string
	for _, rec := range r.recs {
		if rec.err != nil && len(out) < n {
			out = append(out, fmt.Sprintf("op %d (%s): %v", rec.idx, rec.kind, rec.err))
		}
	}
	return out
}

// opsPerSec is the throughput of the pass.
func (r loopResult) opsPerSec() float64 {
	return float64(len(r.recs)) / r.elapsed.Seconds()
}

// fingerprint sums the work of the ops with index below prefix; it also
// returns how many such ops completed, which is prefix unless the pass
// ended early.
func (r loopResult) fingerprint(prefix int) (work, int) {
	var w work
	n := 0
	for _, rec := range r.recs {
		if rec.idx < prefix {
			w.add(rec.w)
			n++
		}
	}
	return w, n
}

// latencyStats returns the median op latency and the tail: the latency
// with exactly tailBeyond ops above it (the highest percentile with at
// least that many ops beyond it), its percentile, and the sample count.
func (r loopResult) latencyStats() (p50, tail time.Duration, tailPct float64, n int) {
	lat := make([]time.Duration, len(r.recs))
	for i, rec := range r.recs {
		lat[i] = rec.lat
	}
	return latencyStats(lat)
}

// kindStats summarizes the ops of one kind.
type kindStats struct {
	kind     string
	n        int
	p50, max time.Duration
}

// byKind summarizes the ops per kind, in order of first appearance.
func (r loopResult) byKind() []kindStats {
	var order []string
	lat := map[string][]time.Duration{}
	for _, rec := range r.recs {
		if _, ok := lat[rec.kind]; !ok {
			order = append(order, rec.kind)
		}
		lat[rec.kind] = append(lat[rec.kind], rec.lat)
	}
	var out []kindStats
	for _, k := range order {
		p50, _, _, n := latencyStats(lat[k])
		out = append(out, kindStats{kind: k, n: n, p50: p50, max: slices.Max(lat[k])})
	}
	return out
}

const tailBeyond = 10

func latencyStats(lat []time.Duration) (p50, tail time.Duration, tailPct float64, n int) {
	n = len(lat)
	if n == 0 {
		return 0, 0, 0, 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n%2 == 1 {
		p50 = s[n/2]
	} else {
		p50 = (s[n/2-1] + s[n/2]) / 2
	}
	ti := max(n-1-tailBeyond, 0)
	return p50, s[ti], 100 * float64(ti+1) / float64(n), n
}

// resources is the process's cumulative resource use.
type resources struct {
	cpu        time.Duration // user + system CPU time (rusage)
	gcCPU      float64       // GC CPU seconds (runtime/metrics)
	totalCPU   float64       // CPU seconds GOMAXPROCS cores could have spent
	allocBytes float64       // bytes allocated on the heap
}

func (r resources) minus(o resources) resources {
	return resources{r.cpu - o.cpu, r.gcCPU - o.gcCPU, r.totalCPU - o.totalCPU, r.allocBytes - o.allocBytes}
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func sampleResources() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return resources{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:      val(0),
		totalCPU:   val(1),
		allocBytes: val(2),
	}
}

// maxRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// cpuUtil is the pass's CPU time over the CPU time GOMAXPROCS cores could
// have spent.
func (r loopResult) cpuUtil() float64 {
	return r.used.cpu.Seconds() / (r.elapsed.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// median of a non-empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
