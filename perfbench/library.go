package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"plurality"
	"plurality/internal/core"
	"plurality/internal/graph"
	"plurality/internal/lumped"
	"plurality/internal/occupancy"
	"plurality/internal/population"
	"plurality/internal/protocols"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// input is one entry of a library workload's mix: a protocol run that the
// workload submits as Job.Run calls with a fresh seed per op.
type input struct {
	name   string // metric suffix, e.g. "2c", "jmaj5"
	spec   string
	counts []int64
	opts   []plurality.Option // everything but the seed
	weight int                // occurrences per cycle of the op sequence
	// layer names the engine entry point Job.Run lands on, and direct calls
	// it with the inputs and rng streams Job.Run would use, so its result
	// must match Job.Run's bit for bit.
	layer  string
	direct func(counts []int64, seed uint64) (work, error)
}

// maxTime is the library's default parallel-time budget (DefaultMaxTime).
const maxTime = plurality.DefaultMaxTime

// libInstance is a set-up library workload: the compiled job pool and the
// op sequence over it.
type libInstance struct {
	inputs []input
	cycle  []int            // input index per cycle position
	jobs   []*plurality.Job // jobs[i] serves op i (mod len(jobs))
}

// newLibInstance compiles a pool of ops jobs, a whole number of cycles
// of the inputs' mix, each with its own seed derived from the workload
// seed, and runs the warm-up.
func newLibInstance(inputs []input, ops int, seed uint64) (*libInstance, error) {
	l := &libInstance{inputs: inputs, cycle: interleave(inputs)}
	ops -= ops % len(l.cycle)
	l.jobs = make([]*plurality.Job, ops)
	for i := range l.jobs {
		job, err := l.compile(i, opSeed(seed, i))
		if err != nil {
			return nil, err
		}
		l.jobs[i] = job
	}
	// Warm-up: one run of every input with a fixed seed, the same work in
	// every set-up.
	for idx := range inputs {
		job, err := l.compile(l.occurrences(idx, 1)[0], warmupSeed)
		if err != nil {
			return nil, err
		}
		if _, err := checkReport(job.Run(context.Background())); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", inputs[idx].name, err)
		}
	}
	return l, nil
}

// warmupSeed seeds the fixed warm-up runs of every set-up.
const warmupSeed = 7

// input returns the input op i runs.
func (l *libInstance) input(i int) *input { return &l.inputs[l.cycle[i%len(l.cycle)]] }

func (l *libInstance) kind(i int) string { return l.input(i).name }

// compile builds and validates op i's job.
func (l *libInstance) compile(i int, seed uint64) (*plurality.Job, error) {
	in := l.input(i)
	job, err := plurality.NewJob(in.spec, in.counts, append(slices.Clip(in.opts), plurality.WithSeed(seed))...)
	if err != nil {
		return nil, err
	}
	return job, job.Validate()
}

// op runs op i's pre-compiled job and checks the report.
func (l *libInstance) op(ctx context.Context, i int, tr *tracer, parent int) (work, error) {
	job := l.jobs[i%len(l.jobs)]
	var rep plurality.Report
	var err error
	tr.timed("plurality.Job.Run", parent, i, func() { rep, err = job.Run(ctx) })
	return checkReport(rep, err)
}

// checkReport accepts a run that converged without error to color 0, the
// initial plurality of every input this benchmark builds.
func checkReport(rep plurality.Report, err error) (work, error) {
	w := work{Ticks: rep.Ticks, Messages: rep.Messages, Rounds: int64(rep.Rounds)}
	switch {
	case err != nil:
		return w, err
	case !rep.Converged:
		return w, errors.New("no consensus")
	case rep.Winner != 0:
		return w, fmt.Errorf("winner %d, want the initial plurality 0", rep.Winner)
	}
	return w, nil
}

// replay is one probe of a pool op: its compile time, and the fastest of
// replayRounds alternating Job.Run and direct layer calls on identical
// inputs (the minimum filters out interference from the rest of the
// machine).
type replay struct {
	in                  *input
	compile, run, layer time.Duration
	w                   work
}

const replayRounds = 2

// replayOps probes the first reps occurrences of every input: it
// recompiles the op's job, then alternately runs it and calls the layer
// entry point directly with the same seed, and fails when the two disagree
// on the work done.
func (l *libInstance) replayOps(ctx context.Context, tr *tracer, seed uint64, reps int) (map[string][]replay, error) {
	out := map[string][]replay{}
	root := tr.begin("probe/replay", -1, -1)
	defer tr.end(root)
	for idx := range l.inputs {
		in := &l.inputs[idx]
		for _, i := range l.occurrences(idx, reps) {
			s := opSeed(seed, i)
			rp := replay{in: in, run: time.Hour, layer: time.Hour}
			var job *plurality.Job
			var err error
			rp.compile = tr.timed("plurality.NewJob", root, i, func() { job, err = l.compile(i, s) })
			if err != nil {
				return nil, err
			}
			for range replayRounds {
				var rep plurality.Report
				rp.run = min(rp.run, tr.timed("plurality.Job.Run", root, i, func() { rep, err = job.Run(ctx) }))
				want, err := checkReport(rep, err)
				if err != nil {
					return nil, fmt.Errorf("%s op %d: %w", in.name, i, err)
				}
				rp.layer = min(rp.layer, tr.timed(in.layer, root, i, func() { rp.w, err = in.direct(in.counts, s) }))
				if err != nil {
					return nil, fmt.Errorf("%s op %d: %s: %w", in.name, i, in.layer, err)
				}
				if rp.w != want {
					return nil, fmt.Errorf("%s op %d: %s did %+v, Job.Run %+v on identical inputs", in.name, i, in.layer, rp.w, want)
				}
			}
			out[in.name] = append(out[in.name], rp)
		}
	}
	return out, nil
}

// occurrences returns the first reps op indices that run input idx.
func (l *libInstance) occurrences(idx, reps int) []int {
	var out []int
	for i := 0; len(out) < reps; i++ {
		if l.cycle[i%len(l.cycle)] == idx {
			out = append(out, i)
		}
	}
	return out
}

// opSeed derives op i's run seed from the workload seed (SplitMix64).
func opSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// --- direct layer entry points ----------------------------------------------
//
// Each mirrors what Job.Run does for a default-option Poisson run: the
// scheduler draws from rng stream 0 and the protocol from stream 1 of the
// op seed (synchronous runs use stream 0 for sampling), with the library's
// default budgets.

func mustRule(spec string) dynamics.Rule {
	_, rule, err := protocols.Lookup(spec)
	if err != nil {
		panic(err)
	}
	return rule
}

func sum(counts []int64) int {
	var n int64
	for _, c := range counts {
		n += c
	}
	return int(n)
}

// occupancyRun is internal/occupancy's exact engine (Run) or, with leap,
// its hybrid tau-leap engine (RunLeap).
func occupancyRun(spec string, leap bool) func([]int64, uint64) (work, error) {
	rule := mustRule(spec)
	return func(counts []int64, seed uint64) (work, error) {
		n := sum(counts)
		s, err := sched.NewPoisson(n, 1, rng.At(seed, 0))
		if err != nil {
			return work{}, err
		}
		cfg := occupancy.Config{Scheduler: s, Rand: rng.At(seed, 1), MaxTime: maxTime}
		var res occupancy.Result
		if leap {
			var lr occupancy.LeapResult
			lr, err = occupancy.RunLeap(slices.Clone(counts), rule, cfg, occupancy.LeapConfig{})
			res = lr.Result
		} else {
			res, err = occupancy.Run(slices.Clone(counts), rule, cfg)
		}
		return checkWinner(res.Ticks, 0, res.Done, res.Winner, err)
	}
}

// lumpedRun is internal/lumped's degree-class engine on a classed graph;
// the histogram is laid out over the classes the way the dynamics layer
// does it (color blocks intersected with contiguous class ranges).
func lumpedRun(spec string, g graph.Classed) func([]int64, uint64) (work, error) {
	rule := mustRule(spec)
	classes := g.Classes()
	return func(counts []int64, seed uint64) (work, error) {
		k := len(counts)
		m := make([]int64, len(classes)*k)
		var cStart int64
		for c, v := range counts {
			var aStart int64
			for a, cl := range classes {
				if o := min(cStart+v, aStart+cl.Count) - max(cStart, aStart); o > 0 {
					m[a*k+c] = o
				}
				aStart += cl.Count
			}
			cStart += v
		}
		s, err := sched.NewPoisson(sum(counts), 1, rng.At(seed, 0))
		if err != nil {
			return work{}, err
		}
		res, err := lumped.Run(m, nil, rule, lumped.Config{Classes: classes, Scheduler: s, Rand: rng.At(seed, 1), MaxTime: maxTime})
		return checkWinner(res.Ticks, 0, res.Done, res.Winner, err)
	}
}

// perNodeRun is the per-node loop of internal/protocols/dynamics on g (the
// clique when g is nil).
func perNodeRun(spec string, g graph.Graph) func([]int64, uint64) (work, error) {
	rule := mustRule(spec)
	return func(counts []int64, seed uint64) (work, error) {
		pop, topo, err := populationOn(counts, g)
		if err != nil {
			return work{}, err
		}
		s, err := sched.NewPoisson(pop.N(), 1, rng.At(seed, 0))
		if err != nil {
			return work{}, err
		}
		res, err := dynamics.RunAsync(pop, rule, dynamics.AsyncConfig{
			Graph: topo, Scheduler: s, Rand: rng.At(seed, 1), MaxTime: maxTime,
			Engine: dynamics.EnginePerNode,
		})
		return checkWinner(res.Ticks, 0, res.Done, res.Winner, err)
	}
}

// coreRun is internal/core's protocol runner on the clique.
func coreRun(counts []int64, seed uint64) (work, error) {
	pop, topo, err := populationOn(counts, nil)
	if err != nil {
		return work{}, err
	}
	s, err := sched.NewPoisson(pop.N(), 1, rng.At(seed, 0))
	if err != nil {
		return work{}, err
	}
	res, err := core.NewRunner().Run(pop, core.Config{Graph: topo, Scheduler: s, Rand: rng.At(seed, 1), MaxTime: maxTime})
	return checkWinner(res.Ticks, 0, res.Done, res.Winner, err)
}

// syncRun is the synchronous round engine (internal/syncsim, driven by
// dynamics.RunSync) on the clique.
func syncRun(spec string) func([]int64, uint64) (work, error) {
	rule := mustRule(spec)
	return func(counts []int64, seed uint64) (work, error) {
		pop, topo, err := populationOn(counts, nil)
		if err != nil {
			return work{}, err
		}
		res, err := dynamics.RunSync(pop, rule, dynamics.SyncConfig{Graph: topo, Rand: rng.At(seed, 0), MaxRounds: plurality.DefaultMaxRounds})
		return checkWinner(0, int64(res.Rounds), res.Done, res.Winner, err)
	}
}

func populationOn(counts []int64, g graph.Graph) (*population.Population, graph.Graph, error) {
	pop, err := population.FromCounts(counts)
	if err != nil {
		return nil, nil, err
	}
	if g == nil {
		g, err = graph.NewComplete(pop.N())
	}
	return pop, g, err
}

func checkWinner(ticks, rounds int64, done bool, winner population.Color, err error) (work, error) {
	return checkReport(plurality.Report{Converged: done, Winner: winner, Ticks: ticks, Rounds: int(rounds)}, err)
}
