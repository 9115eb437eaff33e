// Command perfbench is the repository's wall-clock benchmark. It runs one
// named workload against the library, the pluralityd service or the node
// runtime from a single process, checks the output of every op, and prints
// its metrics; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload collapsed-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the workload runs untraced for --seconds and the metrics
// are the end-to-end ones (endToEnd). With --trace 1 it runs untraced for
// half the time and traced for the other half, the other workloads' layers
// are swept and probed, and the metrics are the per-layer ones (perLayer);
// the spans are written to --out.
//
// The seed derives every op's run seed and the quenched graph; the same
// seed gives the same op sequence and the same work fingerprint.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// setupReps is how often a timed run sets its workload up; setup_s is the
// median.
const setupReps = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the final line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed (1009 is held out of tuning)")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "traces"), "directory for span dumps of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d drivers %d\n", w.name, *seed, *seconds, *trace, w.drivers)

	var res result
	var err error
	if *trace == 0 {
		res, err = timedRun(context.Background(), w, *seed, dur, stdout)
	} else {
		res, err = tracedRun(context.Background(), w, *seed, dur, *out, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// timedRun sets the workload up setupReps times, then drives it untraced
// for dur and reports the end-to-end metrics.
func timedRun(ctx context.Context, w workload, seed uint64, dur time.Duration, stdout io.Writer) (result, error) {
	defer w.useProcs()()
	var inst instance
	var setups []float64
	for range setupReps {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	lr := closedLoop(ctx, w.drivers, dur, 0, inst, nil)
	inst.close()

	p50, tail, tailPct, n := lr.latencyStats()
	failed := lr.failures()
	m := map[string]float64{
		"ops_per_s":  lr.opsPerSec(),
		"op_p50_ms":  ms(p50),
		"op_tail_ms": ms(tail),
		// CPU time excludes time the hypervisor stole from the process,
		// which wall-clock times include.
		"cpu_ms_per_op": lr.used.cpu.Seconds() * 1e3 / float64(n),
		"setup_s":       median(setups),
		"max_rss_mb":    maxRSSMB(),
	}
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "metric %-12s %12.4f %s\n", d.Name, m[d.Name], d.Unit)
	}
	fmt.Fprintf(stdout, "metric %-12s %12.4f frac (%d of %d ops failed)\n", "error_rate", float64(failed)/float64(max(n, 1)), failed, n)
	fmt.Fprintf(stdout, "tail op_tail_ms is p%.2f of %d ops (%d beyond it)\n", tailPct, n, min(tailBeyond, n-1))
	fmt.Fprintf(stdout, "setup_s runs %v\n", setups)
	for _, k := range lr.byKind() {
		fmt.Fprintf(stdout, "kind %-10s ops %5d p50 %9.2f ms max %9.2f ms\n", k.kind, k.n, ms(k.p50), ms(k.max))
	}
	printFingerprint(stdout, w.name, lr, inst.fingerprintOps())
	for _, e := range lr.firstErrors(5) {
		fmt.Fprintln(stdout, "error", e)
	}
	return newResult(endToEnd, m, n, failed)
}

// tracedRun drives the workload untraced and then traced for dur/2 each,
// sweeps and probes every workload's layers with the tracer on, and
// reports the per-layer metrics.
func tracedRun(ctx context.Context, w workload, seed uint64, dur time.Duration, out string, stdout io.Writer) (result, error) {
	tr := newTracer()
	attempted, failed := 0, 0
	pass := func(wl workload, d time.Duration, t *tracer) (instance, loopResult, error) {
		defer wl.useProcs()()
		inst, err := wl.setup(seed)
		if err != nil {
			return nil, loopResult{}, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		var lr loopResult
		if d > 0 {
			lr = closedLoop(ctx, wl.drivers, d, 0, inst, t)
			attempted += len(lr.recs)
			failed += lr.failures()
			for _, e := range lr.firstErrors(5) {
				fmt.Fprintln(stdout, "error", e)
			}
		}
		return inst, lr, nil
	}

	inst, plain, err := pass(w, dur/2, nil)
	if err != nil {
		return result{}, err
	}
	inst.close()
	own, traced, err := pass(w, dur/2, tr)
	if err != nil {
		return result{}, err
	}
	m := map[string]float64{
		"runtime.gc_cpu_frac":        traced.used.gcCPU / traced.used.totalCPU,
		"runtime.alloc_bytes_per_op": traced.used.allocBytes / float64(len(traced.recs)),
		"runtime.cpu_util":           traced.cpuUtil(),
		"trace.overhead_frac":        1 - traced.opsPerSec()/plain.opsPerSec(),
	}
	printFingerprint(stdout, w.name, traced, own.fingerprintOps())

	// Every workload's layers: this one's from its traced pass, the
	// others' from a short traced sweep (where their metrics need loop
	// spans) plus their probes.
	for _, wl := range workloads {
		inst, lr := own, traced
		if wl.name != w.name {
			if inst, lr, err = pass(wl, wl.sweep, tr); err != nil {
				return result{}, err
			}
		}
		err := inst.layers(ctx, tr, seed, lr, m)
		inst.close()
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(stdout, "error %s layers: %v\n", wl.name, err)
		}
	}

	path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "spans written to %s\n", path)
	for i, lt := range tr.summary() {
		if i == 12 {
			break
		}
		fmt.Fprintf(stdout, "span %-40s count %6d total %10.1f ms self %10.1f ms\n", lt.Name, lt.Count, lt.TotalMs, lt.SelfMs)
	}
	for _, d := range perLayer {
		fmt.Fprintf(stdout, "metric %-32s %14.4f %-6s moves %s\n", d.Name, m[d.Name], d.Unit, d.Moves)
	}
	return newResult(perLayer, m, attempted, failed)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func printFingerprint(stdout io.Writer, name string, lr loopResult, prefix int) {
	fp, n := lr.fingerprint(prefix)
	fmt.Fprintf(stdout, "fingerprint %s first %d ops (%d completed): ticks %d messages %d rounds %d\n",
		name, prefix, n, fp.Ticks, fp.Messages, fp.Rounds)
}

// newResult assembles the final line. A metric that could not be computed
// is an error unless ops already failed (then it reads 0 and the run is
// marked incorrect).
func newResult(defs []metricDef, m map[string]float64, attempted, failed int) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if attempted == 0 {
		return result{}, errors.New("no op completed")
	}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if failed == 0 {
				return result{}, fmt.Errorf("metric %s not computed (%v)", d.Name, v)
			}
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}
