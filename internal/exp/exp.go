// Package exp is the declarative experiment engine: a Scenario describes
// one fully specified simulation (protocol, population size and bias
// profile, topology, scheduler model, failure/latency/churn injection), a
// Sweep grids Scenarios over any set of axes, and Run executes the
// resulting cells × trials on the shared parallel-trial pool, aggregating
// per-cell statistics (mean/median/quantiles plus bootstrap confidence
// intervals) into a schema-stable JSON Report.
//
// The package exists so the question "how does consensus time react to
// <axis>?" is a declaration, not a hand-written loop: named sweeps (see
// named.go) cover the paper's Θ(log n) scaling claim, the Bankhamer et al.
// edge-latency extension, node churn, and restricted topologies, each with
// statistical gates that turn the expected shape into an executable
// regression test. Compare diffs two Reports within tolerance bands, which
// is how CI keeps the committed baseline honest.
//
// Everything is deterministic given the sweep seed: scenario RNG streams,
// trial sharding, topology construction and bootstrap resampling all derive
// from it, so a Report is a pure function of (Sweep, seed) and baseline
// diffs are meaningful across machines.
package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"plurality"
	"plurality/internal/rng"
)

// Scenario is one fully specified simulation configuration. The zero value
// is not runnable; Validate reports what is missing. String-typed fields
// keep the struct declarative (axes patch them textually) and make the JSON
// artifact self-describing.
type Scenario struct {
	// Protocol selects the runner: "core" (the paper's Theorem 1.3
	// protocol) or any registered sampling dynamic resolved through the
	// protocol registry — "two-choices", "voter", "3-majority", "usd",
	// "j-majority:<j>" and their aliases (plurality.Protocols lists them).
	Protocol string `json:"protocol"`
	// N is the number of nodes; K the number of colors.
	N int `json:"n"`
	K int `json:"k"`
	// Bias names the initial-distribution workload: "biased" (c1 =
	// (1+param)·c2, Theorem 1.3's regime), "gapsqrt", "tinygap", "zipf"
	// or "uniform". BiasParam is its parameter (ε, z or the Zipf
	// exponent; ignored for "uniform").
	Bias      string  `json:"bias"`
	BiasParam float64 `json:"biasParam,omitempty"`
	// Topology names the communication graph: "complete", "cycle",
	// "torus" (requires square N), "gnp" with TopologyParam = p,
	// "random-regular" with TopologyParam = d (a quenched configuration-model
	// sample per trial), or the annealed mean-field counterparts "annealed"
	// (d-regular, TopologyParam = d) and "annealed-gnp" (the
	// degree-partitioned annealed G(n,p), TopologyParam = p). Annealed
	// topologies report their degree-class symmetry, so dynamics cells on
	// them collapse to the O(classes × colors) lumped engine.
	Topology      string  `json:"topology"`
	TopologyParam float64 `json:"topologyParam,omitempty"`
	// Model selects the scheduler engine: "sequential", "poisson" or
	// "heap-poisson".
	Model string `json:"model"`
	// Crash is the crashed-node fraction (core protocol on the complete
	// graph only; see core.Config.CrashFraction).
	Crash float64 `json:"crash,omitempty"`
	// Churn is the per-activation churn probability (see WithChurn).
	Churn float64 `json:"churn,omitempty"`
	// Latency encodes the edge-latency model: "" or "none" (instant
	// edges), "exp:<mean>" or "uniform:<lo>:<hi>".
	Latency string `json:"latency,omitempty"`
	// DelayRate, when positive, enables the §4 per-step Exp(rate)
	// response delay.
	DelayRate float64 `json:"delayRate,omitempty"`
	// MaxTime bounds the run in parallel time; 0 selects the library
	// default.
	MaxTime float64 `json:"maxTime,omitempty"`
	// Engine selects the dynamics execution engine: "" or "auto"
	// (count-collapse whenever possible), "per-node" (force the O(n)
	// simulation), "occupancy" (require a count-collapsed engine: O(k)
	// occupancy on the complete topology, the O(classes × colors) lumped
	// engine on annealed topologies; no latency/delay, dynamics protocols
	// only), or
	// "leap" / "leap:<eps>" (the hybrid tau-leap/mean-field engine with an
	// optional explicit per-step error budget; occupancy's constraints plus
	// no churn and a flow-law protocol). With "occupancy" and "leap" the
	// harness never materializes a per-node population at all — cells run
	// on the histogram — which is what lets the scale sweep reach n = 10⁸
	// and the leap cells go further still.
	Engine string `json:"engine,omitempty"`
	// Adversary names a registered adversary ("minority-bias", "delay-set",
	// "late:<lag>", "corrupt", "byzantine"; plurality.Adversaries lists
	// them). "" and "none" run adversary-free; so does any name with a zero
	// Budget, bit-identically to the clean run.
	Adversary string `json:"adversary,omitempty"`
	// Budget is the adversary's power f as text: a plain integer, or the
	// symbolic forms "n^<p>" and "<c>sqrt(n)" which resolve against the
	// cell's N — threshold sweeps express f in the scaling unit the theory
	// speaks, exactly as the churn axis's "<coef>/n" form does for rates.
	Budget string `json:"budget,omitempty"`
	// Runtime selects the execution substrate: "" or "sim" (the simulator
	// engines, the default), "node" (the networked node runtime on the
	// deterministic in-process transport: one goroutine per node, local
	// Poisson clocks, pull messages), or "node-tcp" (the same runtime over
	// real loopback TCP sockets). The node runtimes execute registered
	// dynamics on the clique under the poisson model only — every
	// simulator-side injection axis is rejected at Validate; see
	// validateRuntime.
	Runtime string `json:"runtime,omitempty"`
}

// Trial is the outcome of one scenario execution.
type Trial struct {
	// Done reports whether consensus was reached within the time budget.
	Done bool
	// Time is the parallel time at which consensus completed (valid when
	// Done).
	Time float64
	// Ticks is the number of delivered activations.
	Ticks int64
	// Win reports whether the initial plurality color won (valid when
	// Done).
	Win bool
	// Churns is the number of churn events injected.
	Churns int64
	// Corruptions is the number of opinions the adversary rewrote
	// (corruption flips plus Byzantine lies).
	Corruptions int64
	// Biased is the number of activations the adversary redirected or
	// suppressed.
	Biased int64
	// Messages is the number of pull requests exchanged when the trial ran
	// on the node runtime; 0 for simulator trials (the engines deliver
	// samples without materializing messages).
	Messages int64
}

// Validate checks that the scenario names a runnable configuration: it
// compiles the scenario (which parses the harness's own string fields) and
// validates the result as a plurality.Job, whose capability table owns
// every engine × option × topology × adversary × runtime rule.
func (sc Scenario) Validate() error {
	protocol, counts, opts, err := sc.compile(0)
	if err != nil {
		return err
	}
	if _, err := plurality.NewJob(protocol, counts, opts...); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	return nil
}

// nodeRuntime reports whether the scenario runs on the networked node
// runtime rather than a simulator engine.
func (sc Scenario) nodeRuntime() bool {
	return sc.Runtime == "node" || sc.Runtime == "node-tcp"
}

// fromCounts reports whether a trial runs from the job's bound counts
// instead of a shuffled per-node population: the count-collapsed engines
// never materialize one (O(k) memory regardless of n), and the node runtime
// builds its own cluster. On the clique both are exchangeable, so block
// placement is statistically irrelevant.
func (sc Scenario) fromCounts() bool {
	return sc.nodeRuntime() || sc.Engine == "occupancy" || strings.HasPrefix(sc.Engine, "leap")
}

// maxNodeRuntimeN bounds n on the node runtime: one goroutine (plus timers
// and message events) per node, so a mistyped axis cannot ask the scheduler
// for millions of processes.
const maxNodeRuntimeN = 1 << 16

// checkFields validates the scenario's own fields: the n and k bounds, the
// topology parameters, the numeric encodings where 0 selects a default, and
// the node runtime's n cap.
// Whether the fields combine into a runnable job is the Job's concern.
func (sc Scenario) checkFields() error {
	if sc.N < 4 {
		return fmt.Errorf("exp: n = %d, want >= 4", sc.N)
	}
	if sc.K < 2 {
		return fmt.Errorf("exp: k = %d, want >= 2", sc.K)
	}
	switch sc.Topology {
	case "complete", "cycle":
	case "torus":
		side := int(math.Round(math.Sqrt(float64(sc.N))))
		if side*side != sc.N {
			return fmt.Errorf("exp: torus topology needs a square n, got %d", sc.N)
		}
	case "gnp", "annealed-gnp":
		if sc.TopologyParam <= 0 || sc.TopologyParam > 1 {
			return fmt.Errorf("exp: %s topology needs p in (0, 1], got %v", sc.Topology, sc.TopologyParam)
		}
		// NewGNP patches isolated nodes with one extra uniform edge so the
		// sampling contract (Degree >= 1) holds. Below (n-1)p = 1 those
		// patch edges dominate the graph and the cell no longer measures
		// G(n,p); reject at declaration time.
		if float64(sc.N-1)*sc.TopologyParam < 1 {
			return fmt.Errorf("exp: %s topology with (n-1)p = %.3f < 1 is mostly isolated-node patch edges, not G(n,p); raise p or n",
				sc.Topology, float64(sc.N-1)*sc.TopologyParam)
		}
	case "random-regular", "annealed":
		d := int(sc.TopologyParam)
		if float64(d) != sc.TopologyParam || d < 1 {
			return fmt.Errorf("exp: %s topology needs an integer degree d >= 1, got %v", sc.Topology, sc.TopologyParam)
		}
		if d >= sc.N {
			return fmt.Errorf("exp: %s topology needs d < n, got d=%d n=%d", sc.Topology, d, sc.N)
		}
		if sc.Topology == "random-regular" && sc.N*d%2 != 0 {
			return fmt.Errorf("exp: random-regular topology needs n·d even, got n=%d d=%d", sc.N, d)
		}
	default:
		return fmt.Errorf("exp: unknown topology %q", sc.Topology)
	}
	if sc.DelayRate < 0 {
		return fmt.Errorf("exp: delayRate = %v, want >= 0 (0 disables response delays)", sc.DelayRate)
	}
	if sc.MaxTime < 0 {
		return fmt.Errorf("exp: maxTime = %v, want >= 0 (0 selects the default budget)", sc.MaxTime)
	}
	if sc.nodeRuntime() && sc.N > maxNodeRuntimeN {
		return fmt.Errorf("exp: runtime %s runs one process per node; n = %d exceeds the %d-node bound", sc.Runtime, sc.N, maxNodeRuntimeN)
	}
	return nil
}

// compile turns the scenario into the inputs of a plurality.Job — the
// protocol spec, the initial counts and the options — for the given trial
// seed (randomized topologies derive their sample from it). It parses the
// scenario's own string fields; whether the engine, runtime, topology and
// injections combine is left to the Job's Validate. It never builds a
// per-node population.
func (sc Scenario) compile(seed uint64) (string, []int64, []plurality.Option, error) {
	fail := func(err error) (string, []int64, []plurality.Option, error) { return "", nil, nil, err }
	if err := sc.checkFields(); err != nil {
		return fail(err)
	}
	counts, err := sc.counts()
	if err != nil {
		return fail(err)
	}
	m, err := sc.model()
	if err != nil {
		return fail(err)
	}
	lat, err := parseLatency(sc.Latency)
	if err != nil {
		return fail(err)
	}
	adv, err := sc.adversarySpec()
	if err != nil {
		return fail(err)
	}

	opts := []plurality.Option{plurality.WithSeed(seed), plurality.WithModel(m)}
	switch sc.Runtime {
	case "", "sim":
	case "node", "node-tcp":
		transport := plurality.NewChanTransport()
		if sc.Runtime == "node-tcp" {
			transport = plurality.NewTCPTransport(nodeTCPUnit)
		}
		opts = append(opts, plurality.WithTransport(transport))
	default:
		return fail(fmt.Errorf("exp: unknown runtime %q (want sim, node or node-tcp)", sc.Runtime))
	}
	switch eps, leap := strings.CutPrefix(sc.Engine, "leap:"); {
	case sc.Engine == "" || sc.Engine == "auto":
	case sc.Engine == "per-node":
		// The core protocol always runs per node; the harness accepts the
		// redundant spelling for it, which the Job would reject as a no-op.
		if sc.Protocol != "core" {
			opts = append(opts, plurality.WithEngine(plurality.EnginePerNode))
		}
	case sc.Engine == "occupancy":
		opts = append(opts, plurality.WithEngine(plurality.EngineOccupancy))
	case sc.Engine == "leap":
		opts = append(opts, plurality.WithEngine(plurality.EngineLeap))
	case leap:
		v, err := strconv.ParseFloat(eps, 64)
		if err != nil {
			return fail(fmt.Errorf("exp: leap engine budget %q, want a number in (0, 0.5]", eps))
		}
		opts = append(opts, plurality.WithEngine(plurality.EngineLeap), plurality.WithLeapEpsilon(v))
	default:
		return fail(fmt.Errorf("exp: unknown engine %q", sc.Engine))
	}
	if sc.Topology != "complete" {
		g, err := sc.graph(seed)
		if err != nil {
			return fail(err)
		}
		opts = append(opts, plurality.WithGraph(g))
	}
	if sc.MaxTime > 0 {
		opts = append(opts, plurality.WithMaxTime(sc.MaxTime))
	}
	if sc.Crash != 0 {
		opts = append(opts, plurality.WithCrashes(sc.Crash))
	}
	if sc.Churn != 0 {
		opts = append(opts, plurality.WithChurn(sc.Churn))
	}
	if lat != nil {
		opts = append(opts, plurality.WithEdgeLatency(lat))
	}
	if sc.DelayRate > 0 {
		opts = append(opts, plurality.WithResponseDelay(sc.DelayRate))
	}
	if adv.Name != "" && adv.Name != "none" {
		// Named but unbudgeted adversaries still reach the Job, so a path
		// that cannot host adversaries rejects the cell either way; at run
		// time an inactive spec is bit-identical to none.
		opts = append(opts, plurality.WithAdversary(adv))
	}
	return sc.Protocol, counts, opts, nil
}

// adversarySpec resolves the Adversary/Budget pair into a budgeted spec
// ready for WithAdversary. The inactive spec (no name, or zero budget) is
// returned for adversary-free scenarios.
func (sc Scenario) adversarySpec() (plurality.AdversarySpec, error) {
	spec, err := plurality.ParseAdversary(sc.Adversary)
	if err != nil {
		return plurality.AdversarySpec{}, fmt.Errorf("exp: adversary %q: %w", sc.Adversary, err)
	}
	budget, err := parseBudget(sc.Budget, sc.N)
	if err != nil {
		return plurality.AdversarySpec{}, err
	}
	if budget > 0 && (spec.Name == "" || spec.Name == "none") {
		return plurality.AdversarySpec{}, fmt.Errorf("exp: budget %q set with no adversary to spend it", sc.Budget)
	}
	spec.Budget = budget
	if err := spec.Validate(); err != nil {
		return plurality.AdversarySpec{}, fmt.Errorf("exp: adversary %q: %w", sc.Adversary, err)
	}
	return spec, nil
}

// parseBudget decodes a Scenario.Budget string into the concrete budget f.
// Besides plain integers it accepts "n^<p>" and "<c>sqrt(n)" (coefficient
// optional), both rounded to the nearest integer after resolving against n;
// "" and "0" mean no budget.
func parseBudget(s string, n int) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "0" {
		return 0, nil
	}
	bad := func(why string) error {
		return fmt.Errorf("exp: budget %q: %s", s, why)
	}
	symbolic := func(v float64) (int64, error) {
		if n <= 0 {
			return 0, bad("symbolic form needs n set first")
		}
		if math.IsNaN(v) || v < 0 {
			return 0, bad("resolves to a negative or undefined budget")
		}
		return int64(math.Round(v)), nil
	}
	if p, ok := strings.CutPrefix(s, "n^"); ok {
		pow, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return 0, bad("bad exponent")
		}
		return symbolic(math.Pow(float64(n), pow))
	}
	if coef, ok := strings.CutSuffix(s, "sqrt(n)"); ok {
		coef = strings.TrimSuffix(strings.TrimSpace(coef), "*")
		c := 1.0
		if coef != "" {
			v, err := strconv.ParseFloat(coef, 64)
			if err != nil {
				return 0, bad("bad coefficient")
			}
			c = v
		}
		return symbolic(c * math.Sqrt(float64(n)))
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, bad("want a non-negative integer, \"n^<p>\" or \"<c>sqrt(n)\"")
	}
	return v, nil
}

// parseLatency decodes a Scenario.Latency string into an edge-latency
// model; "" and "none" mean nil (instant edges).
func parseLatency(s string) (plurality.EdgeLatency, error) {
	if s == "" || s == "none" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	switch parts[0] {
	case "exp":
		if len(parts) != 2 {
			return nil, fmt.Errorf("exp: latency %q, want exp:<mean>", s)
		}
		mean, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || mean <= 0 {
			return nil, fmt.Errorf("exp: latency %q has bad mean", s)
		}
		return plurality.ExpEdgeLatency(mean), nil
	case "uniform":
		if len(parts) != 3 {
			return nil, fmt.Errorf("exp: latency %q, want uniform:<lo>:<hi>", s)
		}
		lo, err1 := strconv.ParseFloat(parts[1], 64)
		hi, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || lo < 0 || hi <= lo {
			return nil, fmt.Errorf("exp: latency %q has bad bounds", s)
		}
		return plurality.UniformEdgeLatency(lo, hi), nil
	default:
		return nil, fmt.Errorf("exp: unknown latency model %q", s)
	}
}

// counts materializes the scenario's initial color histogram; the workload
// constructors hold the per-profile parameter rules.
func (sc Scenario) counts() ([]int64, error) {
	var (
		counts []int64
		err    error
	)
	switch sc.Bias {
	case "biased":
		counts, err = plurality.Biased(sc.N, sc.K, sc.BiasParam)
	case "gapsqrt":
		counts, err = plurality.GapSqrt(sc.N, sc.K, sc.BiasParam)
	case "tinygap":
		counts, err = plurality.TinyGap(sc.N, sc.K, sc.BiasParam)
	case "zipf":
		counts, err = plurality.Zipf(sc.N, sc.K, sc.BiasParam)
	case "uniform":
		counts, err = plurality.Uniform(sc.N, sc.K)
	default:
		return nil, fmt.Errorf("exp: unknown bias profile %q", sc.Bias)
	}
	if err != nil {
		return nil, fmt.Errorf("exp: bias %s:%v: %w", sc.Bias, sc.BiasParam, err)
	}
	return counts, nil
}

// graph materializes the scenario's topology. Randomized topologies derive
// their seed from the trial seed, so distinct trials see independent graph
// samples while the whole run stays deterministic.
func (sc Scenario) graph(seed uint64) (plurality.Graph, error) {
	switch sc.Topology {
	case "complete":
		return plurality.CompleteGraph(sc.N)
	case "cycle":
		return plurality.CycleGraph(sc.N)
	case "torus":
		side := int(math.Round(math.Sqrt(float64(sc.N))))
		return plurality.TorusGraph(side, side)
	case "gnp":
		return plurality.RandomGraph(sc.N, sc.TopologyParam, rng.At(seed, graphStream).Uint64())
	case "random-regular":
		return plurality.RandomRegularGraph(sc.N, int(sc.TopologyParam), rng.At(seed, graphStream).Uint64())
	case "annealed":
		// The annealed regular model has no quenched wiring to sample, so
		// the graph is seed-free and identical across trials.
		return plurality.AnnealedRegularGraph(sc.N, int(sc.TopologyParam))
	case "annealed-gnp":
		g, err := plurality.RandomGraph(sc.N, sc.TopologyParam, rng.At(seed, graphStream).Uint64())
		if err != nil {
			return nil, err
		}
		return plurality.AnnealedGraph(g)
	default:
		return nil, fmt.Errorf("exp: unknown topology %q", sc.Topology)
	}
}

// Derived-stream indices for the per-trial seed. The library runners
// consume streams 0 and 1 of each seed, so the harness claims high indices
// for its own draws.
const (
	shuffleStream = 1 << 10
	graphStream   = 1<<10 + 1
)

// model maps the scenario's scheduler name to the public option value.
func (sc Scenario) model() (plurality.Model, error) {
	switch sc.Model {
	case "sequential":
		return plurality.Sequential, nil
	case "poisson":
		return plurality.Poisson, nil
	case "heap-poisson":
		return plurality.HeapPoisson, nil
	default:
		return 0, fmt.Errorf("exp: unknown model %q", sc.Model)
	}
}

// RunScenario executes one trial of the scenario under the given seed with
// a background context; see RunScenarioCtx.
func RunScenario(sc Scenario, seed uint64) (Trial, error) {
	return RunScenarioCtx(context.Background(), sc, seed)
}

// RunScenarioCtx executes one trial of the scenario under the given seed
// through the Job API, honoring ctx inside every engine loop (the CLI's
// -timeout flag lands here). A run that exhausts its time budget is not an
// error: it returns a Trial with Done == false so sweeps can record the
// failure rate. Cancellation and invalid configurations abort.
func RunScenarioCtx(ctx context.Context, sc Scenario, seed uint64) (Trial, error) {
	protocol, counts, opts, err := sc.compile(seed)
	if err != nil {
		return Trial{}, err
	}
	job, err := plurality.NewJob(protocol, counts, opts...)
	if err != nil {
		return Trial{}, fmt.Errorf("exp: %w", err)
	}
	// The workloads designate the most frequent color (lowest index on
	// ties) as the plurality, same rule as Population.Plurality.
	plurColor := plurality.Color(0)
	for c := 1; c < len(counts); c++ {
		if counts[c] > counts[plurColor] {
			plurColor = plurality.Color(c)
		}
	}
	if sc.fromCounts() {
		rep, err := job.Run(ctx)
		return trialFromReport(sc, rep, plurColor, err)
	}
	pop, err := plurality.NewPopulation(counts)
	if err != nil {
		return Trial{}, err
	}
	// FromCounts assigns colors in contiguous index blocks, which spatial
	// topologies would read as adversarially clustered opinions; shuffle
	// so every topology starts from a uniformly random placement. The job
	// then runs on the prepared population (RunOn) rather than from its
	// bound counts.
	pop.Shuffle(rng.At(seed, shuffleStream))
	rep, err := job.RunOn(ctx, pop)
	return trialFromReport(sc, rep, plurColor, err)
}

// nodeTCPUnit is the simulated-time unit for runtime=node-tcp cells: 2ms of
// wall clock per time unit keeps a smoke cell inside CI budgets while still
// exercising real sockets end to end. The trial's Time on the node runtime
// is the cluster's consensus instant — the same observable the simulator
// reports — not the longer halting tail the termination gadget adds after
// it.
const nodeTCPUnit = 2 * time.Millisecond

// trialFromReport maps a Job report onto the harness's Trial, tolerating
// the convergence-failure sentinels (a timed-out cell is data, not an
// error) while surfacing cancellation and configuration errors.
func trialFromReport(sc Scenario, rep plurality.Report, plurColor plurality.Color, err error) (Trial, error) {
	tr := Trial{
		Done:        rep.Converged,
		Time:        rep.Time,
		Ticks:       rep.Ticks,
		Win:         rep.Converged && rep.Winner == plurColor,
		Churns:      rep.Churns,
		Corruptions: rep.Corruptions,
		Biased:      rep.Biased,
		Messages:    rep.Messages,
	}
	if sc.Protocol == "core" || sc.nodeRuntime() {
		// The core protocol and the node runtime report the consensus
		// instant separately from the run's total time (the node runtime's
		// total includes the termination gadget's halting tail); the
		// harness has always recorded the former.
		tr.Time = rep.ConsensusTime
	}
	if err != nil && !errors.Is(err, plurality.ErrNoConsensus) && !errors.Is(err, plurality.ErrTimeLimit) {
		// Even a hard stop (cancellation) returns the partial trial next to
		// the error: the engines preserve their injection counters on every
		// exit path, and dropping them here would lose that work.
		return tr, err
	}
	return tr, nil
}
