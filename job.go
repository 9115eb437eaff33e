package plurality

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"plurality/internal/adversary"
	"plurality/internal/core"
	"plurality/internal/graph"
	"plurality/internal/occupancy"
	"plurality/internal/par"
	"plurality/internal/protocols"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/protocols/onebit"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// Job is a validated, reusable binding of protocol spec × initial counts ×
// options — the v2 run API. Compile one with NewJob, then execute it any
// number of times:
//
//	job, err := plurality.NewJob("two-choices", counts,
//		plurality.WithSeed(7), plurality.WithModel(plurality.Poisson))
//	rep, err := job.Run(ctx)          // one run
//	reps, err := job.Trials(ctx, 100) // pooled parallel trials
//
// The spec is "core" (Theorem 1.3's asynchronous protocol), "onebit" (alias
// "one-extra-bit"; Theorem 1.2), or any registry protocol spec —
// "two-choices", "voter", "3-majority", "usd", "j-majority:5" (see
// Protocols). Registry protocols run asynchronously by default and
// synchronously under WithModel(Synchronous); with WithEngine(
// EngineOccupancy) they execute count-collapsed in O(k) memory without ever
// materializing a per-node population.
//
// NewJob validates eagerly: options the selected runner would silently
// ignore are rejected (see Validate), as are malformed counts, unknown
// protocols and bad parameters. Execution is context-aware — cancellation
// and deadlines are honored inside every engine loop — and a Job is
// immutable after construction, so it is safe to share across goroutines
// (each Run builds fresh run state).
type Job struct {
	spec   string
	kind   Kind
	counts []int64
	total  int64
	o      *options
	desc   protocols.Descriptor // registry protocols only
	rule   dynamics.Rule        // registry protocols only
}

// NewJob compiles and validates a job; see Job for the spec syntax. counts
// is copied, so the caller's slice stays untouched by later runs.
func NewJob(spec string, counts []int64, opts ...Option) (*Job, error) {
	j, err := newJob(spec, counts, newOptions(opts))
	if err != nil {
		return nil, err
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// newJob resolves the spec and binds the counts; NewJob validates the
// result.
func newJob(spec string, counts []int64, o *options) (*Job, error) {
	j := &Job{spec: spec, counts: slices.Clone(counts), o: o}
	for _, v := range j.counts {
		j.total += v
	}
	switch spec {
	case "core":
		j.kind = KindCore
	case "onebit", "one-extra-bit":
		j.kind = KindOneExtraBit
	default:
		d, rule, err := protocols.Lookup(spec)
		if err != nil {
			return nil, err
		}
		j.desc, j.rule = d, rule
		if o.model == Synchronous {
			j.kind = KindSyncDynamic
		} else {
			j.kind = KindDynamic
		}
	}
	return j, nil
}

// Kind returns the runner family the job is bound to.
func (j *Job) Kind() Kind { return j.kind }

// Protocol returns the protocol spec the job was compiled from.
func (j *Job) Protocol() string { return j.spec }

// N returns the total number of nodes (the histogram total).
func (j *Job) N() int64 { return j.total }

// countsPath reports whether the job executes directly on the histogram
// (O(k) memory, no per-node population): an asynchronous dynamic with the
// occupancy or leap engine required.
func (j *Job) countsPath() bool {
	p := j.path()
	return p == pathCounts || p == pathLeap
}

// execPath is one execution path a job compiles to; capabilities holds
// what each path accepts.
type execPath int

const (
	pathCore   execPath = iota // the core protocol (Theorem 1.3)
	pathAsync                  // asynchronous dynamics, per node or EngineAuto
	pathCounts                 // EngineOccupancy: occupancy on the clique, lumped on classed graphs
	pathLeap                   // EngineLeap: the hybrid tau-leap/mean-field engine
	pathSync                   // synchronous rounds (WithModel(Synchronous))
	pathOneBit                 // OneExtraBit (Theorem 1.2)
	pathNode                   // the node runtime (WithTransport)
	numPaths
)

// path resolves the execution path the job's kind and options select.
func (j *Job) path() execPath {
	switch j.kind {
	case KindCore:
		return pathCore
	case KindSyncDynamic:
		return pathSync
	case KindOneExtraBit:
		return pathOneBit
	}
	switch {
	case j.o.set&maskOf(idTransport) != 0:
		return pathNode
	case j.o.engine == EngineOccupancy:
		return pathCounts
	case j.o.engine == EngineLeap:
		return pathLeap
	}
	return pathAsync
}

// capability is one path's entry in the capability table: the options the
// path consumes, why it rejects the others, and which active adversaries
// it cannot host.
type capability struct {
	name    string           // how diagnostics name the path
	allowed uint32           // mask of the optIDs the path consumes
	reasons map[optID]string // per-path rejection reasons (overriding optReasons)
	adv     []advRule
}

// advRule rejects an active adversary: one of the given family (0 matches
// every family), restricted to per-node adversaries (perNode) and to runs
// on the degree-class lumped engine (lumped) when set. The reason is
// formatted with the adversary's name.
type advRule struct {
	family  adversary.Family
	perNode bool
	lumped  bool
	reason  string
}

// commonOpts are consumed by every simulator path.
var commonOpts = maskOf(idSeed, idTrialWorkers, idObserver)

// capabilities is the single source of the engine × option × adversary ×
// runtime rules: Validate rejects every applied option outside the path's
// mask, with the path's reason, and every active adversary an advRule
// matches. Adding an execution path is one entry here.
var capabilities = [numPaths]capability{
	pathCore: {
		name: "core protocol",
		allowed: commonOpts | maskOf(idModel, idMaxTime, idResponseDelay,
			idEdgeLatency, idChurn, idGraph, idProbe, idDelta, idPhases,
			idGadgetSamples, idEndgameTicks, idNoSyncGadget, idEndgameOnly,
			idRunToHalt, idCrashes, idDesync, idAdversary),
		reasons: map[optID]string{
			idEngine:    "the core protocol always runs per node; its working-time schedule is per-node state",
			idTransport: "the node runtime runs asynchronous registry sampling dynamics only; the core protocol executes on the simulator",
		},
		adv: []advRule{{family: adversary.FamilyByzantine,
			reason: "the %s adversary has no lying channel in the core protocol: it cannot lie to samples that carry bits and real times alongside colors; use a registry sampling dynamic"}},
	},
	pathAsync: {
		name: "asynchronous dynamics engine",
		allowed: commonOpts | maskOf(idModel, idMaxTime, idResponseDelay,
			idEdgeLatency, idChurn, idGraph, idEngine, idAdversary),
	},
	pathCounts: {
		name:    "count-collapsed engine",
		allowed: commonOpts | maskOf(idModel, idMaxTime, idChurn, idGraph, idEngine, idAdversary),
		adv: []advRule{
			{perNode: true, reason: "adversary %s targets individual nodes, which the count-collapsed engine does not track; use the per-node engine (EnginePerNode) or EngineAuto"},
			{lumped: true, reason: "adversary %s cannot run on the degree-class lumped engine, which has no per-event hooks; use the per-node engine (EnginePerNode) or EngineAuto"},
		},
	},
	pathLeap: {
		name:    "leap engine",
		allowed: commonOpts | maskOf(idModel, idMaxTime, idGraph, idEngine, idLeapEps, idODEThreshold),
		reasons: map[optID]string{
			idChurn:     "the leap engine is churn-free by construction (churn breaks its flow laws); use EngineOccupancy",
			idAdversary: "the leap engine cannot host adversaries (tau-leap batches have no per-event hooks); use EngineOccupancy or EnginePerNode",
		},
	},
	pathSync: {
		name:    "synchronous round engine",
		allowed: commonOpts | maskOf(idModel, idMaxRounds, idGraph, idAdversary),
		reasons: map[optID]string{
			idMaxTime:   "synchronous runs are bounded in rounds; use WithMaxRounds",
			idTransport: "the node runtime runs on per-node Poisson clocks; synchronous rounds execute on the simulator",
		},
		adv: []advRule{{family: adversary.FamilyScheduling,
			reason: "scheduling adversary %s needs asynchronous activations; synchronous rounds have no activation order to bias"}},
	},
	pathOneBit: {
		name:    "OneExtraBit runner",
		allowed: commonOpts | maskOf(idGraph, idMaxRounds, idMaxPhases, idPropagationRounds),
		reasons: map[optID]string{
			idModel:     "OneExtraBit is a synchronous protocol by definition",
			idMaxTime:   "OneExtraBit is bounded in phases; use WithMaxPhases",
			idTransport: "the node runtime runs asynchronous registry sampling dynamics only; OneExtraBit executes on the simulator",
		},
	},
	pathNode: {
		// The node runtime executes registry dynamics as live
		// message-passing processes: a live cluster has no global
		// scheduler, no global view, and owns its delay model through the
		// transport.
		name:    "node runtime",
		allowed: maskOf(idSeed, idTrialWorkers, idModel, idMaxTime, idTransport),
		reasons: map[optID]string{
			idMaxRounds:     "rounds are a synchronous-model notion; live nodes run on local Poisson clocks",
			idResponseDelay: "response delays are a transport property on the node runtime; inject latency with NewLossyChanTransport",
			idEdgeLatency:   "edge latencies are a transport property on the node runtime; inject latency with NewLossyChanTransport",
			idChurn:         "churn rewrites the simulator's engine state mid-run; a live node cannot be re-randomized from outside",
			idEngine:        "engine selection does not apply: engines are simulator execution strategies, and the node runtime is its own execution path",
			idGraph:         "the node runtime samples the complete topology (every peer addressable); other topologies are simulator-only",
			idObserver:      "snapshot observation rides the simulator's global tick hook (OnTick); a live cluster has no global view to sample",
			idCrashes:       "crash schedules are applied by the simulator's scheduler, which the node runtime replaces",
			idDesync:        "desynchronized starts are a core-protocol scheduler feature, not a cluster one",
			idLeapEps:       "the leap engine's error budget does not apply off the simulator",
			idODEThreshold:  "the leap engine's ODE handoff does not apply off the simulator",
			idAdversary:     "adversaries instrument the simulator's global scheduler and engine state, which live nodes do not share",
		},
	},
}

// optReasons is the default explanation for an option a path rejects: the
// paths that do consume it.
var optReasons = [numOptIDs]string{
	idModel:             "it selects an asynchronous schedule",
	idMaxTime:           "it bounds asynchronous runs in parallel time",
	idMaxRounds:         "it bounds synchronous runs (WithModel(Synchronous), onebit)",
	idResponseDelay:     "response delays need per-node pending state (the core protocol or the per-node engine)",
	idEdgeLatency:       "edge latencies need per-node pending state (the core protocol or the per-node engine)",
	idChurn:             "churn applies to the asynchronous simulator engines",
	idEngine:            "engines select how asynchronous sampling dynamics execute",
	idProbe:             "sync-quality probes observe the core protocol only",
	idDelta:             "it tunes the core protocol's schedule",
	idPhases:            "it tunes the core protocol's schedule",
	idGadgetSamples:     "it tunes the core protocol's Sync Gadget",
	idEndgameTicks:      "it tunes the core protocol's endgame",
	idPropagationRounds: "it tunes OneExtraBit's Bit-Propagation",
	idMaxPhases:         "it bounds OneExtraBit runs",
	idNoSyncGadget:      "it ablates the core protocol's Sync Gadget",
	idEndgameOnly:       "it configures the core protocol's endgame",
	idRunToHalt:         "it configures the core protocol's termination",
	idCrashes:           "crash injection is defined only for the core protocol",
	idDesync:            "desynchronized starts are a core-protocol feature",
	idLeapEps:           "it tunes the leap engine only (WithEngine(EngineLeap))",
	idODEThreshold:      "it tunes the leap engine only (WithEngine(EngineLeap))",
	idAdversary:         "the runner has no adversary hooks",
	idTransport:         "the node runtime runs asynchronous registry sampling dynamics only (two-choices, voter, 3-majority, usd, j-majority)",
}

// Validate checks the job end to end without running anything: every
// applied option against the capability table entry of the path the job
// compiles to (options the path would not consume are errors, never
// silently dropped), the counts (shape, totals, per-engine limits), the
// protocol parameters and the graph binding.
func (j *Job) Validate() error {
	p := j.path()
	c := &capabilities[p]
	if bad := j.o.set &^ c.allowed; bad != 0 {
		var parts []string
		for id := optID(0); id < numOptIDs; id++ {
			if bad&(1<<id) == 0 {
				continue
			}
			reason := c.reasons[id]
			if reason == "" {
				reason = optReasons[id]
			}
			parts = append(parts, fmt.Sprintf("%s (%s)", optNames[id], reason))
		}
		return fmt.Errorf("plurality: job %s: the %s does not use %s; the option(s) would be silently ignored",
			j.spec, c.name, strings.Join(parts, "; "))
	}

	// Counts: non-negative, a workable total that fits the schedulers'
	// node index.
	if len(j.counts) == 0 {
		return fmt.Errorf("plurality: job %s has no initial counts", j.spec)
	}
	for c, v := range j.counts {
		if v < 0 {
			return fmt.Errorf("plurality: job %s: negative count %d for color %d", j.spec, v, c)
		}
	}
	if j.total < 2 {
		return fmt.Errorf("plurality: job %s: histogram total %d, want >= 2", j.spec, j.total)
	}
	if j.total != int64(int(j.total)) {
		return fmt.Errorf("plurality: job %s: histogram total %d overflows the node index", j.spec, j.total)
	}
	if g := j.o.graph; g != nil && int64(g.N()) != j.total {
		return fmt.Errorf("plurality: job %s: graph has %d nodes, histogram %d", j.spec, g.N(), j.total)
	}
	if r := j.o.churnRate; j.o.set&maskOf(idChurn) != 0 && !(r >= 0 && r < 1) {
		return fmt.Errorf("plurality: job %s: WithChurn(%v): the churn rate must lie in [0, 1)", j.spec, r)
	}
	if err := j.validateAdversary(c); err != nil {
		return err
	}

	switch p {
	case pathCore:
		if j.o.model == Synchronous {
			return errors.New("plurality: the core protocol is asynchronous; WithModel(Synchronous) applies to registry sampling dynamics")
		}
		// The engine's own configuration checks, against the job's graph.
		cfg := j.o.coreConfig(j.o.graph)
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("plurality: job %s: %w", j.spec, err)
		}
		if _, err := core.Plan(cfg, int(j.total)); err != nil {
			return err
		}
	case pathCounts, pathLeap:
		if _, err := j.desc.ValidateCounts(j.counts, j.o.model == HeapPoisson); err != nil {
			return err
		}
		// Counts runs execute count-collapsed by definition: the clique
		// collapses to the color histogram, a degree-class lumpable
		// (graph.Classed) topology to the class × color matrix. Quenched
		// non-complete topologies have neither symmetry, and the leap
		// engine's flow laws are clique-only.
		if g := j.o.graph; g != nil {
			_, complete := g.(graph.Complete)
			_, classed := g.(graph.Classed)
			if p == pathLeap && !complete {
				return fmt.Errorf("plurality: job %s: the leap engine needs the complete topology, got %T", j.spec, g)
			}
			if !complete && !classed {
				return fmt.Errorf("plurality: job %s: a counts job needs a count-collapsible topology (the complete graph, or a degree-class lumpable one: AnnealedRegularGraph, AnnealedGraph), got %T", j.spec, g)
			}
		}
		if p == pathLeap {
			if !j.desc.Leapable {
				return fmt.Errorf("plurality: job %s: protocol %s has no flow law; the leap engine needs one", j.spec, j.desc.Name)
			}
			if j.o.model == HeapPoisson {
				return fmt.Errorf("plurality: job %s: the leap engine needs the Sequential or Poisson model", j.spec)
			}
			if e := j.o.leapEps; j.o.set&maskOf(idLeapEps) != 0 && (math.IsNaN(e) || e <= 0 || e > 0.5) {
				return fmt.Errorf("plurality: job %s: WithLeapEpsilon(%v), want (0, 0.5]", j.spec, e)
			}
			if th := j.o.odeTheta; j.o.set&maskOf(idODEThreshold) != 0 && (math.IsNaN(th) || th >= 1) {
				return fmt.Errorf("plurality: job %s: WithODEThreshold(%v), want < 1 (0 disables the ODE regime)", j.spec, th)
			}
		}
	case pathSync:
		if j.o.maxRounds <= 0 {
			return fmt.Errorf("plurality: job %s: MaxRounds = %d, want > 0", j.spec, j.o.maxRounds)
		}
	case pathNode:
		if j.o.transport == nil {
			return fmt.Errorf("plurality: job %s: WithTransport(nil); the node runtime needs a transport (NewChanTransport, NewLossyChanTransport, NewTCPTransport)", j.spec)
		}
		if j.o.set&maskOf(idModel) != 0 && j.o.model != Poisson {
			return fmt.Errorf("plurality: job %s: the node runtime's clocks are per-node Poisson processes; WithModel selects a simulator schedule — use the poisson model (WithModel(Poisson)) or omit the option", j.spec)
		}
	}
	if p != pathSync && p != pathOneBit {
		if j.o.maxTime <= 0 {
			return fmt.Errorf("plurality: job %s: MaxTime = %v, want > 0", j.spec, j.o.maxTime)
		}
		if math.IsNaN(j.o.maxTime) {
			return fmt.Errorf("plurality: job %s: MaxTime is NaN", j.spec)
		}
	}
	return nil
}

// validateAdversary checks an applied WithAdversary spec and, when it is
// active, the path's adversary rules.
func (j *Job) validateAdversary(c *capability) error {
	if j.o.set&maskOf(idAdversary) == 0 {
		return nil
	}
	spec := j.o.adversary
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("plurality: job %s: %w", j.spec, err)
	}
	if !spec.Active() {
		return nil
	}
	d, _ := spec.Descriptor()
	_, complete := j.o.graph.(graph.Complete)
	lumped := j.o.graph != nil && !complete
	for _, r := range c.adv {
		if (r.family == 0 || r.family == d.Family) && (!r.perNode || d.PerNode) && (!r.lumped || lumped) {
			return fmt.Errorf("plurality: job %s: %s", j.spec, fmt.Sprintf(r.reason, d.Name))
		}
	}
	return nil
}

// Run executes one run of the job from its initial counts, honoring ctx:
// cancellation or deadline expiry is polled inside every engine loop (the
// core schedule, the per-node dynamics, the count-collapsed leap/tick
// modes, the synchronous round loop, OneExtraBit's phases) and surfaces as
// a context error wrapping the progress made so far. Convergence failures
// surface as the sentinels: errors.Is(err, ErrNoConsensus | ErrTimeLimit |
// ErrPhaseLimit). The returned Report is meaningful in every error case.
//
// Run never mutates the job; concurrent Runs are safe and, for a fixed
// seed, bit-identical to each other.
func (j *Job) Run(ctx context.Context) (Report, error) {
	return j.run(ctx, j.o, nil)
}

// RunOn executes the job's protocol and options on a caller-supplied
// population, mutating it in place — the bridge for callers that prepare
// populations themselves (shuffled placements on spatial topologies, resumed
// states). The job's bound counts are ignored; the population defines the
// initial configuration. Jobs compiled with WithEngine(EngineOccupancy)
// still honor it: the run collapses the population's histogram and writes
// the final histogram back.
func (j *Job) RunOn(ctx context.Context, pop *Population) (Report, error) {
	if pop == nil {
		return Report{}, fmt.Errorf("plurality: job %s: nil population", j.spec)
	}
	if j.o.transport != nil {
		return Report{}, fmt.Errorf("plurality: job %s: the node runtime builds its cluster from the job's counts; RunOn's caller-supplied population is a simulator entry point", j.spec)
	}
	return j.runOn(ctx, j.o, nil, pop)
}

// run executes one run from the job's counts under o (a possibly reseeded
// copy of the job's options), reusing pooled trial state when st is
// non-nil.
func (j *Job) run(ctx context.Context, o *options, st *trialState) (Report, error) {
	if o.transport != nil {
		// Node-runtime path: live goroutine-backed nodes over the
		// configured transport. No pooled state applies — each run builds
		// a fresh transport instance and fresh nodes.
		return execCluster(ctx, j, o, 0)
	}
	if j.countsPath() {
		var counts []int64
		var rn *dynamics.Runner
		if st != nil {
			copy(st.counts, j.counts)
			counts, rn = st.counts, st.dyn
		} else {
			counts, rn = slices.Clone(j.counts), new(dynamics.Runner)
		}
		res, err := execCounts(ctx, rn, counts, j.desc, j.rule, o)
		return j.report(reportFromAsync(res)), err
	}
	var pop *Population
	if st != nil {
		if err := st.pop.Reset(st.base); err != nil {
			return Report{}, err
		}
		pop = st.pop
	} else {
		var err error
		if pop, err = NewPopulation(j.counts); err != nil {
			return Report{}, err
		}
	}
	return j.runOn(ctx, o, st, pop)
}

// runOn dispatches one run on pop to the kind's engine.
func (j *Job) runOn(ctx context.Context, o *options, st *trialState, pop *Population) (Report, error) {
	switch j.kind {
	case KindCore:
		rn := core.NewRunner()
		if st != nil {
			rn = st.core
		}
		res, err := execCore(ctx, rn, pop, o)
		return j.report(reportFromCore(res)), err
	case KindDynamic:
		rn := new(dynamics.Runner)
		if st != nil {
			rn = st.dyn
		}
		res, err := execAsync(ctx, rn, pop, j.rule, o)
		return j.report(reportFromAsync(res)), err
	case KindSyncDynamic:
		rn := new(dynamics.Runner)
		if st != nil {
			rn = st.dyn
		}
		res, err := execSync(ctx, rn, pop, j.rule, o)
		return j.report(reportFromSync(res)), err
	case KindOneExtraBit:
		rn := new(onebit.Runner)
		if st != nil {
			rn = st.ob
		}
		res, err := execOneBit(ctx, rn, pop, o)
		return j.report(reportFromOneExtraBit(res)), err
	default:
		return Report{}, fmt.Errorf("plurality: job %q has unknown kind %d", j.spec, j.kind)
	}
}

// report stamps the job's identity onto a converted report.
func (j *Job) report(rep Report) Report {
	rep.Protocol = j.spec
	return rep
}

// trialState is the pooled per-worker state of Job.Trials: the cloned
// population (or histogram scratch on the counts path) plus the engine
// runner owning the reusable O(n) buffers.
type trialState struct {
	base   *Population
	pop    *Population
	counts []int64
	core   *core.Runner
	dyn    *dynamics.Runner
	ob     *onebit.Runner
}

// newTrialState builds one worker's pooled state; base is nil exactly on
// the counts path.
func (j *Job) newTrialState(base *Population) *trialState {
	st := &trialState{base: base}
	if base != nil {
		st.pop = base.Clone()
	} else {
		st.counts = make([]int64, len(j.counts))
	}
	switch j.kind {
	case KindCore:
		st.core = core.NewRunner()
	case KindOneExtraBit:
		st.ob = new(onebit.Runner)
	default:
		st.dyn = new(dynamics.Runner)
	}
	return st
}

// Trials executes trials independent runs of the job, sharded across
// WithTrialWorkers goroutines (default GOMAXPROCS). Trial t runs with a
// seed derived deterministically from the base WithSeed and t (see
// TrialSeed), so the result slice is a pure function of (job, trials) —
// independent of the worker count and of scheduling — and trial 0 is
// bit-identical to Run. Results are returned in trial order; the first
// failing trial's error (lowest index) is returned alongside the full
// slice, with later trials still run, so convergence failures leave every
// report usable.
//
// Per-worker state is pooled across trials via sync.Pool: populations and
// engine buffers — roughly seven O(n) slices for the core protocol, the
// staging/pending buffers of the dynamics engines, the O(k) histogram of
// counts jobs — are reused instead of reallocated and rezeroed, for every
// registered protocol and engine. Pooling cannot change results: a trial's
// outcome is a pure function of its seed.
//
// ctx cancels the whole fan-out: trials that already ran keep their
// reports, and the first canceled trial's context error is returned.
// Observer callbacks (WithObserver, WithProbe) are invoked concurrently
// from trial workers.
func (j *Job) Trials(ctx context.Context, trials int) ([]Report, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("plurality: trials = %d, want > 0", trials)
	}
	var base *Population
	if !j.countsPath() && j.o.transport == nil {
		var err error
		if base, err = NewPopulation(j.counts); err != nil {
			return nil, err
		}
	}

	// One pooled state per concurrently active worker; sync.Pool keeps the
	// states alive exactly as long as the trial loop needs them.
	pool := sync.Pool{New: func() any { return j.newTrialState(base) }}
	results := make([]Report, trials)
	err := par.ForEach(j.o.trialWorkers, trials, func(trial int) error {
		st := pool.Get().(*trialState)
		defer pool.Put(st)
		to := *j.o
		to.seed = TrialSeed(j.o.seed, trial)
		rep, err := j.run(ctx, &to, st)
		results[trial] = rep
		return err
	})
	return results, err
}

// TrialSeed derives the seed trial t of a multi-trial run uses from the
// base seed: trial 0 keeps the base seed (a 1-trial run matches Run
// exactly) and later trials get decorrelated streams via SplitMix-style
// mixing.
func TrialSeed(seed uint64, trial int) uint64 {
	if trial == 0 {
		return seed
	}
	return rng.At(seed, trial).Uint64()
}

// --- execution layer ------------------------------------------------------
//
// The exec helpers below are the single execution path of the library:
// Job.Run, Job.RunOn and Job.Trials call them with the job's (possibly
// reseeded) option struct. ctx is honored through each engine's Stop hook;
// a Background (or otherwise never-canceled) context compiles to a nil hook
// and costs nothing on the hot path.

// stopFunc derives an engine Stop hook from ctx; nil when ctx can never be
// canceled.
func stopFunc(ctx context.Context) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// ctxErr rewraps an engine's stop sentinel as the context's own error so
// callers can match errors.Is(err, context.Canceled) and friends; other
// errors pass through.
func ctxErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, core.ErrStopped) || errors.Is(err, dynamics.ErrStopped) || errors.Is(err, onebit.ErrStopped) {
		if cause := context.Cause(ctx); cause != nil {
			return fmt.Errorf("plurality: %w (%v)", cause, err)
		}
	}
	return err
}

// execCore executes one core-protocol run on the given (possibly reused)
// runner.
func execCore(ctx context.Context, rn *core.Runner, pop *Population, o *options) (CoreResult, error) {
	g, err := o.topology(pop)
	if err != nil {
		return CoreResult{}, err
	}
	s, err := o.scheduler(pop.N())
	if err != nil {
		return CoreResult{}, err
	}
	adv, err := o.newAdversary()
	if err != nil {
		return CoreResult{}, err
	}
	cfg := o.coreConfig(g)
	cfg.Scheduler = s
	cfg.Rand = rng.At(o.seed, 1)
	cfg.Stop = stopFunc(ctx)
	cfg.Adversary = adv
	o.coreObserver(&cfg, pop)
	res, err := rn.Run(pop, cfg)
	return res, ctxErr(ctx, err)
}

// execAsync executes one asynchronous sampling-dynamics run on pop.
func execAsync(ctx context.Context, rn *dynamics.Runner, pop *Population, rule dynamics.Rule, o *options) (dynamics.AsyncResult, error) {
	g, err := o.topology(pop)
	if err != nil {
		return dynamics.AsyncResult{}, err
	}
	s, err := o.scheduler(pop.N())
	if err != nil {
		return dynamics.AsyncResult{}, err
	}
	cfg := dynamics.AsyncConfig{
		Graph:     g,
		Scheduler: s,
		Rand:      rng.At(o.seed, 1),
		MaxTime:   o.maxTime,
	}
	if o.delayRate > 0 {
		cfg.Delay = sched.ExpDelay{Rate: o.delayRate}
	}
	adv, err := o.newAdversary()
	if err != nil {
		return dynamics.AsyncResult{}, err
	}
	cfg.Latency = o.latency
	cfg.Churn = o.churnRate
	cfg.Engine = o.dynamicsEngine()
	cfg.Leap = o.leapConfig()
	cfg.Stop = stopFunc(ctx)
	cfg.Adversary = adv
	cfg.ObserveInterval, cfg.OnSnapshot = o.asyncObserver()
	res, err := rn.RunAsync(pop, rule, cfg)
	return res, ctxErr(ctx, err)
}

// execSync executes one synchronous sampling-dynamics run on pop.
func execSync(ctx context.Context, rn *dynamics.Runner, pop *Population, rule dynamics.Rule, o *options) (dynamics.SyncResult, error) {
	g, err := o.topology(pop)
	if err != nil {
		return dynamics.SyncResult{}, err
	}
	adv, err := o.newAdversary()
	if err != nil {
		return dynamics.SyncResult{}, err
	}
	obs := o.newSyncObserver()
	res, err := rn.RunSync(pop, rule, dynamics.SyncConfig{
		Graph:     g,
		Rand:      rng.At(o.seed, 0),
		MaxRounds: o.maxRounds,
		Stop:      stopFunc(ctx),
		OnRound:   obs.onRound(),
		Adversary: adv,
	})
	if errors.Is(err, dynamics.ErrStopped) {
		// The engine stops between rounds, where no per-round hook fires;
		// close the observation stream with the interrupted state.
		obs.final(res.Rounds, pop)
	}
	return res, ctxErr(ctx, err)
}

// execCounts executes one count-collapsed run directly on the histogram
// (mutated in place to the final histogram).
func execCounts(ctx context.Context, rn *dynamics.Runner, counts []int64, d protocols.Descriptor, rule dynamics.Rule, o *options) (dynamics.AsyncResult, error) {
	// The O(k)-memory guards live on the registry descriptor so every
	// protocol — including newly registered ones — shares them.
	n, err := d.ValidateCounts(counts, o.model == HeapPoisson)
	if err != nil {
		return dynamics.AsyncResult{}, err
	}
	s, err := o.scheduler(int(n))
	if err != nil {
		return dynamics.AsyncResult{}, err
	}
	cfg := dynamics.AsyncConfig{
		Graph:     o.graph,
		Scheduler: s,
		Rand:      rng.At(o.seed, 1),
		MaxTime:   o.maxTime,
		Churn:     o.churnRate,
		Engine:    o.dynamicsEngine(),
		Leap:      o.leapConfig(),
	}
	if o.delayRate > 0 {
		cfg.Delay = sched.ExpDelay{Rate: o.delayRate}
	}
	adv, err := o.newAdversary()
	if err != nil {
		return dynamics.AsyncResult{}, err
	}
	cfg.Latency = o.latency
	cfg.Stop = stopFunc(ctx)
	cfg.Adversary = adv
	cfg.ObserveInterval, cfg.OnSnapshot = o.asyncObserver()
	res, err := rn.RunAsyncCounts(counts, rule, cfg)
	return res, ctxErr(ctx, err)
}

// execOneBit executes one OneExtraBit run on pop. The phase budget is
// WithMaxPhases when set; otherwise the deprecated legacy derivation
// max(1, MaxRounds/10) applies, preserving the historical default.
func execOneBit(ctx context.Context, rn *onebit.Runner, pop *Population, o *options) (OneExtraBitResult, error) {
	g, err := o.topology(pop)
	if err != nil {
		return OneExtraBitResult{}, err
	}
	maxPhases := o.maxPhases
	if maxPhases <= 0 {
		maxPhases = o.maxRounds / 10
		if maxPhases < 1 {
			maxPhases = 1
		}
	}
	obs := o.newOneBitObserver()
	res, err := rn.Run(pop, onebit.Config{
		Graph:             g,
		Rand:              rng.At(o.seed, 0),
		MaxPhases:         maxPhases,
		PropagationRounds: o.propagationRounds,
		OnPhase:           obs.hook(),
		Stop:              stopFunc(ctx),
	})
	if errors.Is(err, onebit.ErrStopped) {
		// Interrupted runs end between rounds, where no phase hook fires;
		// close the observation stream with the interrupted state.
		obs.final(res.Phases, pop)
	}
	return res, ctxErr(ctx, err)
}

// dynamicsEngine maps the public engine option onto the internal one.
func (o *options) dynamicsEngine() dynamics.Engine {
	switch o.engine {
	case EnginePerNode:
		return dynamics.EnginePerNode
	case EngineOccupancy:
		return dynamics.EngineOccupancy
	case EngineLeap:
		return dynamics.EngineLeap
	default:
		return dynamics.EngineAuto
	}
}

// leapConfig maps the public leap error-budget options onto the engine's
// knobs (zero values select the engine defaults).
func (o *options) leapConfig() occupancy.LeapConfig {
	return occupancy.LeapConfig{Eps: o.leapEps, ODETheta: o.odeTheta}
}

// topology returns the configured graph or the default complete graph
// sized to the population.
func (o *options) topology(pop *Population) (Graph, error) {
	if pop == nil {
		return nil, fmt.Errorf("plurality: nil population")
	}
	if o.graph != nil {
		return o.graph, nil
	}
	return CompleteGraph(pop.N())
}

// scheduler builds the configured asynchronous engine.
func (o *options) scheduler(n int) (sched.Scheduler, error) {
	switch o.model {
	case Sequential:
		return sched.NewSequential(n, rng.At(o.seed, 0))
	case Poisson:
		return sched.NewPoisson(n, 1, rng.At(o.seed, 0))
	case HeapPoisson:
		return sched.NewHeapPoisson(n, 1, rng.At(o.seed, 0))
	case Synchronous:
		return nil, fmt.Errorf("plurality: the Synchronous model has no asynchronous scheduler; it selects the round-based dynamics engine of registry protocols")
	default:
		return nil, fmt.Errorf("plurality: unknown model %d", o.model)
	}
}
