package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"plurality"
	"plurality/internal/graph"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// why is recorded in BENCHMARK.json.
	why     string
	drivers int
	// procs, when set, is the GOMAXPROCS the workload runs with.
	procs int
	// sweep is how long a traced run of another workload drives this one
	// to collect its layer spans; 0 means its layer metrics come from
	// probes alone.
	sweep time.Duration
	setup func(seed uint64) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	kind(i int) string
	// op executes op i of the workload's sequence and checks its output;
	// a non-nil error marks the op failed. Layer calls are traced as
	// children of span parent (tr may be nil).
	op(ctx context.Context, i int, tr *tracer, parent int) (work, error)
	// fingerprintOps is the op-sequence prefix the work fingerprint sums.
	fingerprintOps() int
	// layers adds the workload's per-layer metrics to m, from the traced
	// loop pass lr and its own probes.
	layers(ctx context.Context, tr *tracer, seed uint64, lr loopResult, m map[string]float64) error
	close()
}

var workloads = []workload{
	{
		name:    "collapsed-mix",
		why:     "closed loop, 2 drivers, Job.Run: occupancy, lumped and leap engines and EngineAuto dispatch carry the load; per-node, HTTP and node runtime idle",
		drivers: 2,
		setup:   setupCollapsedMix,
	},
	{
		name:    "pernode-graph",
		why:     "closed loop, 2 drivers: per-node dynamics on clique and CSR random-regular graph, core protocol, sync rounds; the bypass for collapsed-engine changes",
		drivers: 2,
		setup:   setupPerNodeGraph,
	},
	{
		name:    "serve-mixed",
		why:     "closed loop, 2 HTTP clients on an in-process pluralityd (2 workers): ms-sized jobs, 1 in 4 answered from the cache, 1 in 16 streamed over SSE",
		drivers: 2,
		sweep:   2 * time.Second,
		setup:   setupServeMixed,
	},
	{
		name:    "node-fabric",
		why:     "closed loop, 1 driver, GOMAXPROCS 1: one Cluster run at a time on the in-process transports; the only workload through internal/node",
		drivers: 1,
		// The node fabric hands every event between goroutines; across two
		// Ps it ran slower and far less steadily than on one (see README).
		procs: 1,
		sweep: 3 * time.Second,
		setup: setupNodeFabric,
	},
}

// useProcs applies the workload's GOMAXPROCS and returns the undo.
func (w workload) useProcs() (restore func()) {
	if w.procs == 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(w.procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// interleave spreads the inputs over one cycle in proportion to their
// weights (smooth weighted round robin), so heavy and light ops alternate.
func interleave(inputs []input) []int {
	total := 0
	for _, in := range inputs {
		total += in.weight
	}
	cur := make([]int, len(inputs))
	cycle := make([]int, 0, total)
	for range total {
		best := 0
		for i, in := range inputs {
			cur[i] += in.weight
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		cycle = append(cycle, best)
	}
	return cycle
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// --- collapsed-mix -----------------------------------------------------------

type collapsedMix struct{ *libInstance }

func setupCollapsedMix(seed uint64) (instance, error) {
	poisson := plurality.WithModel(plurality.Poisson)
	ann, err := plurality.AnnealedRegularGraph(200_000, 8)
	if err != nil {
		return nil, err
	}
	inputs := []input{
		{name: "2c", spec: "two-choices", counts: must(plurality.Biased(200_000, 4, 1)), weight: 3, layer: "occupancy.Run"},
		{name: "usd", spec: "usd", counts: must(plurality.Biased(200_000, 4, 1)), layer: "occupancy.Run"},
		{name: "3maj16", spec: "3-majority", counts: must(plurality.GapSqrt(40_000, 16, 4)), layer: "occupancy.Run"},
		{name: "jmaj5", spec: "j-majority:5", counts: must(plurality.Biased(1_000, 8, 1)), layer: "occupancy.Run"},
		{name: "lumped", spec: "two-choices", counts: must(plurality.Biased(200_000, 4, 1)), weight: 3,
			opts: []plurality.Option{plurality.WithGraph(ann)}, layer: "lumped.Run",
			direct: lumpedRun("two-choices", ann.(graph.Classed))},
		// EngineAuto escalates only counts-path runs to the leap engine; a
		// default Job materializes a population first, which at 10¹² nodes
		// cannot be allocated, so this input names its engine.
		{name: "leap", spec: "two-choices", counts: must(plurality.Biased(1_000_000_000_000, 4, 1)),
			opts: []plurality.Option{plurality.WithEngine(plurality.EngineLeap)}, weight: 20,
			layer: "occupancy.RunLeap", direct: occupancyRun("two-choices", true)},
	}
	for i := range inputs {
		in := &inputs[i]
		in.opts = append([]plurality.Option{poisson}, in.opts...)
		if in.weight == 0 {
			in.weight = 1
		}
		if in.direct == nil {
			in.direct = occupancyRun(in.spec, false)
		}
	}
	l, err := newLibInstance(inputs, 4096, seed)
	if err != nil {
		return nil, err
	}
	return collapsedMix{l}, nil
}

func (c collapsedMix) fingerprintOps() int { return 2 * len(c.cycle) }

func (collapsedMix) close() {}

// regretInputs are the inputs whose dispatch regret is probed.
var regretInputs = []string{"2c", "usd", "3maj16", "jmaj5"}

func (c collapsedMix) layers(ctx context.Context, tr *tracer, seed uint64, _ loopResult, m map[string]float64) error {
	reps, err := c.replayOps(ctx, tr, seed, 2)
	if err != nil {
		return err
	}
	var compile, run, layer time.Duration
	var compiles int
	for name, rs := range reps {
		var ns, ticks float64
		for _, r := range rs {
			compile += r.compile
			compiles++
			run += r.run
			layer += r.layer
			ns += float64(r.layer.Nanoseconds())
			ticks += float64(r.w.Ticks)
		}
		switch r0 := rs[0]; r0.in.layer {
		case "occupancy.Run":
			m["occupancy.ns_per_tick."+name] = ns / ticks
			m["occupancy.ticks_per_op."+name] = ticks / float64(len(rs))
		case "lumped.Run":
			m["lumped.ns_per_tick"] = ns / ticks
		case "occupancy.RunLeap":
			m["leap.ms_per_op"] = ns / 1e6 / float64(len(rs))
		}
	}
	m["job.compile_us"] = compile.Seconds() * 1e6 / float64(compiles)
	m["job.overhead_frac"] = (run - layer).Seconds() / run.Seconds()

	for _, name := range regretInputs {
		r, err := c.autoRegret(ctx, tr, seed, name)
		if err != nil {
			return err
		}
		m["dispatch.auto_regret."+name] = r
	}
	eff, err := c.trialsEfficiency(ctx, tr, seed)
	if err != nil {
		return err
	}
	m["par.trials_efficiency"] = eff
	return nil
}

func (c collapsedMix) inputIndex(name string) int {
	for i, in := range c.inputs {
		if in.name == name {
			return i
		}
	}
	panic("no input " + name)
}

// autoRegret times Job.Run on one input under EngineAuto and under each
// forced exact engine, and returns auto's time over the fastest forced one.
func (c collapsedMix) autoRegret(ctx context.Context, tr *tracer, seed uint64, name string) (float64, error) {
	idx := c.inputIndex(name)
	in := c.inputs[idx]
	s := opSeed(seed, c.occurrences(idx, 1)[0])
	root := tr.begin("probe/auto_regret."+name, -1, -1)
	defer tr.end(root)
	var times [3]time.Duration
	for i, e := range []struct {
		engine plurality.Engine
		span   string
	}{
		{plurality.EngineAuto, "plurality.Job.Run/auto"},
		{plurality.EnginePerNode, "plurality.Job.Run/per-node"},
		{plurality.EngineOccupancy, "plurality.Job.Run/occupancy"},
	} {
		job, err := plurality.NewJob(in.spec, in.counts, append(slices.Clip(in.opts), plurality.WithSeed(s), plurality.WithEngine(e.engine))...)
		if err != nil {
			return 0, err
		}
		times[i], err = minTime(func() error {
			var rep plurality.Report
			var err error
			tr.timed(e.span, root, -1, func() { rep, err = job.Run(ctx) })
			_, err = checkReport(rep, err)
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("auto regret %s, %s: %w", name, e.span, err)
		}
	}
	return times[0].Seconds() / min(times[1], times[2]).Seconds(), nil
}

// minTime runs fn at least three times and until 300 ms have been spent,
// and returns its fastest run.
func minTime(fn func() error) (time.Duration, error) {
	var total time.Duration
	best := time.Duration(math.MaxInt64)
	for calls := 0; calls < 3 || total < 300*time.Millisecond; calls++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		total += d
		best = min(best, d)
	}
	return best, nil
}

// trialsEfficiency compares Job.Trials on 2 workers with the same trials
// run one at a time: Σ single-run wall ÷ (2 × Trials wall). It also checks
// that every pooled trial did exactly the work of its single run.
func (c collapsedMix) trialsEfficiency(ctx context.Context, tr *tracer, seed uint64) (float64, error) {
	const trials, workers = 8, 2
	in := c.inputs[c.inputIndex("usd")]
	s := opSeed(seed, 0)
	root := tr.begin("probe/trials_efficiency", -1, -1)
	defer tr.end(root)
	opts := append(slices.Clip(in.opts), plurality.WithSeed(s), plurality.WithTrialWorkers(workers))
	job, err := plurality.NewJob(in.spec, in.counts, opts...)
	if err != nil {
		return 0, err
	}
	var reps []plurality.Report
	pooled := tr.timed("plurality.Job.Trials", root, -1, func() { reps, err = job.Trials(ctx, trials) })
	if err != nil {
		return 0, err
	}
	var single time.Duration
	for t := range trials {
		one, err := plurality.NewJob(in.spec, in.counts, append(slices.Clip(in.opts), plurality.WithSeed(plurality.TrialSeed(s, t)))...)
		if err != nil {
			return 0, err
		}
		var rep plurality.Report
		single += tr.timed("plurality.Job.Run", root, -1, func() { rep, err = one.Run(ctx) })
		w, err := checkReport(rep, err)
		if err != nil {
			return 0, err
		}
		if pw, _ := checkReport(reps[t], nil); pw != w {
			return 0, fmt.Errorf("trial %d: Job.Trials did %+v, Job.Run %+v", t, pw, w)
		}
	}
	return single.Seconds() / (workers * pooled.Seconds()), nil
}

// --- pernode-graph -----------------------------------------------------------

const rrNodes, rrDegree = 50_000, 8

type perNodeGraph struct{ *libInstance }

func setupPerNodeGraph(seed uint64) (instance, error) {
	poisson := plurality.WithModel(plurality.Poisson)
	rr, err := plurality.RandomRegularGraph(rrNodes, rrDegree, seed)
	if err != nil {
		return nil, err
	}
	inputs := []input{
		{name: "clique", spec: "two-choices", counts: must(plurality.Biased(100_000, 4, 1)), weight: 1,
			opts:  []plurality.Option{poisson, plurality.WithEngine(plurality.EnginePerNode)},
			layer: "dynamics.RunAsync", direct: perNodeRun("two-choices", nil)},
		{name: "rr8", spec: "two-choices", counts: must(plurality.Biased(rrNodes, 4, 1)), weight: 1,
			opts:  []plurality.Option{poisson, plurality.WithGraph(rr)},
			layer: "dynamics.RunAsync", direct: perNodeRun("two-choices", rr)},
		{name: "core", spec: "core", counts: must(plurality.Biased(4_000, 4, 1)), weight: 1,
			opts:  []plurality.Option{poisson},
			layer: "core.Runner.Run", direct: coreRun},
		{name: "sync", spec: "two-choices", counts: must(plurality.Biased(200_000, 8, 1)), weight: 2,
			opts:  []plurality.Option{plurality.WithModel(plurality.Synchronous)},
			layer: "dynamics.RunSync", direct: syncRun("two-choices")},
	}
	l, err := newLibInstance(inputs, 1024, seed)
	if err != nil {
		return nil, err
	}
	return perNodeGraph{l}, nil
}

func (p perNodeGraph) fingerprintOps() int { return 4 * len(p.cycle) }

func (perNodeGraph) close() {}

func (p perNodeGraph) layers(ctx context.Context, tr *tracer, seed uint64, _ loopResult, m map[string]float64) error {
	reps, err := p.replayOps(ctx, tr, seed, 2)
	if err != nil {
		return err
	}
	perTick := func(name string) float64 {
		var ns, ticks float64
		for _, r := range reps[name] {
			ns += float64(r.layer.Nanoseconds())
			ticks += float64(r.w.Ticks)
		}
		return ns / ticks
	}
	m["pernode.ns_per_tick.clique"] = perTick("clique")
	m["pernode.ns_per_tick.rr8"] = perTick("rr8")
	m["core.ns_per_tick"] = perTick("core")
	var ns, nodeRounds float64
	for _, r := range reps["sync"] {
		ns += float64(r.layer.Nanoseconds())
		nodeRounds += float64(r.w.Rounds) * float64(sum(r.in.counts))
	}
	m["syncsim.ns_per_node_round"] = ns / nodeRounds

	root := tr.begin("probe/graph", -1, -1)
	defer tr.end(root)
	// CSR build: time and retained heap per node, median of three builds.
	var builds, bytes []float64
	var adj *graph.Adjacency
	for b := range 3 {
		adj = nil
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := tr.timed("graph.NewRandomRegular", root, -1, func() {
			adj, err = graph.NewRandomRegular(rrNodes, rrDegree, rng.New(seed+uint64(b)))
		})
		if err != nil {
			return err
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		builds = append(builds, d.Seconds())
		bytes = append(bytes, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/rrNodes)
		runtime.KeepAlive(adj)
	}
	m["graph.build_s"] = median(builds)
	m["graph.bytes_per_node"] = median(bytes)

	// Micro-probes, each the fastest of several passes.
	const samples = 4_000_000
	r := rng.New(seed)
	var acc int
	d, _ := minTime(func() error {
		tr.timed("graph.Adjacency.Sample", root, -1, func() {
			u := 0
			for range samples {
				acc += adj.Sample(r, u)
				u += 7919
				if u >= rrNodes {
					u -= rrNodes
				}
			}
		})
		return nil
	})
	if acc < 0 {
		return fmt.Errorf("impossible neighbor sum %d", acc)
	}
	m["graph.sample_ns"] = float64(d.Nanoseconds()) / samples

	const batches = 8_000
	s, err := sched.NewPoisson(100_000, 1, rng.New(seed))
	if err != nil {
		return err
	}
	buf := make([]sched.Tick, sched.BatchSize)
	d, _ = minTime(func() error {
		tr.timed("sched.Poisson.NextBatch", root, -1, func() {
			for range batches {
				s.NextBatch(buf)
			}
		})
		return nil
	})
	if buf[len(buf)-1].Time <= 0 {
		return fmt.Errorf("poisson scheduler did not advance")
	}
	m["sched.ns_per_tick"] = float64(d.Nanoseconds()) / (batches * sched.BatchSize)
	return nil
}
