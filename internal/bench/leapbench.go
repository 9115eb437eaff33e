package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"plurality"
	"plurality/internal/occupancy"
	"plurality/internal/protocols"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// LeapBenchSchema tags BENCH_leap artifacts so comparison refuses files
// written by an incompatible harness.
const LeapBenchSchema = "plurality-leap/v1"

// LeapBenchConfig configures the hybrid-engine benchmark behind
// BENCH_leap_baseline.json: full consensus runs on the tau-leap/mean-field
// engine per protocol × population size (biased workload, eps = 1, k = 4,
// Poisson model), recording the machine-portable regime trace, plus a
// calibration block that measures the leap engine's consensus-time error
// against the exact engine at a size where both are affordable.
type LeapBenchConfig struct {
	// Smoke selects the CI-sized grid: leap runs at n = 1e9 plus the 1e7
	// calibration, a few seconds total. The full grid takes the leap engine
	// to n = 1e12.
	Smoke bool
	// Seed roots every trial's randomness; the report is a pure function of
	// (config, binary).
	Seed uint64
}

// LeapBenchEntry is one protocol × size measurement over a few hybrid
// consensus runs.
type LeapBenchEntry struct {
	// Protocol is the registry spec the cell ran, e.g. "two-choices".
	Protocol string `json:"protocol"`
	N        int64  `json:"n"`
	Trials   int    `json:"trials"`
	// Converged counts trials that reached consensus inside the budget.
	Converged int `json:"converged"`
	// MeanConsensusTime is the mean parallel time to consensus.
	MeanConsensusTime float64 `json:"meanConsensusTime"`
	// MeanTicks is the mean number of activations covered (leapt, handed to
	// the ODE, or walked exactly). Deterministic given the seed, so baseline
	// comparison treats drift here as a behavior change, not noise.
	MeanTicks float64 `json:"meanTicks"`
	// MeanLeapSteps / MeanExactTransitions / MeanODESteps split the work by
	// regime — the hybrid engine's cost model.
	MeanLeapSteps        float64 `json:"meanLeapSteps"`
	MeanExactTransitions float64 `json:"meanExactTransitions"`
	MeanODESteps         float64 `json:"meanODESteps"`
	// ODETimeFrac is the fraction of covered parallel time the ODE regime
	// handled (1 ⇒ the run was essentially deterministic in the bulk).
	ODETimeFrac float64 `json:"odeTimeFrac"`
	// Regimes is trial 0's regime trace, e.g. "exact>leap>ode>leap>exact"
	// — deterministic given the seed, the regime-switch half of the gate.
	Regimes string `json:"regimes"`
	// SwitchTicks is trial 0's activation count at each regime switch.
	SwitchTicks []int64 `json:"switchTicks"`
	// Seconds is the total wall time of the entry (never gated).
	Seconds   float64 `json:"seconds"`
	NsPerTick float64 `json:"nsPerTick"`
}

// LeapCalibration measures the hybrid engine against the exact
// count-collapsed engine at a size both can afford: the relative error of
// the mean consensus time over a handful of trials each. This is the
// trajectory-accuracy half of the leap gate — machine-portable because both
// sides run the same seeds on the same binary.
type LeapCalibration struct {
	Protocol string `json:"protocol"`
	N        int64  `json:"n"`
	Trials   int    `json:"trials"`
	// ExactMeanTime / LeapMeanTime are the two engines' mean consensus
	// times; RelTimeErr = |leap − exact| / exact.
	ExactMeanTime float64 `json:"exactMeanTime"`
	LeapMeanTime  float64 `json:"leapMeanTime"`
	RelTimeErr    float64 `json:"relTimeErr"`
}

// LeapBenchReport is the full benchmark output, serialized to
// BENCH_leap.json (full grid) and BENCH_leap_baseline.json (smoke grid, the
// CI comparison target).
type LeapBenchReport struct {
	Schema       string            `json:"schema"`
	Go           string            `json:"go"`
	GOARCH       string            `json:"goarch"`
	Smoke        bool              `json:"smoke,omitempty"`
	Seed         uint64            `json:"seed"`
	Entries      []LeapBenchEntry  `json:"entries"`
	Calibrations []LeapCalibration `json:"calibrations"`
}

// leapCell is one grid point of the benchmark.
type leapCell struct {
	protocol string
	n        int64
	trials   int
}

func leapGrid(smoke bool) []leapCell {
	if smoke {
		return []leapCell{
			{"two-choices", 1_000_000_000, 2},
			{"usd", 1_000_000_000, 2},
		}
	}
	return []leapCell{
		{"two-choices", 1_000_000_000, 3},
		{"two-choices", 10_000_000_000, 2},
		{"two-choices", 100_000_000_000, 2},
		{"two-choices", 1_000_000_000_000, 2},
		{"3-majority", 10_000_000_000, 2},
		{"usd", 100_000_000_000, 2},
		{"j-majority:5", 10_000_000_000, 2},
	}
}

// leapCalGrid is the calibration half: sizes where the exact engine is
// still affordable per trial. Shared between smoke and full.
func leapCalGrid() []leapCell {
	return []leapCell{
		{"two-choices", 10_000_000, 12},
		{"usd", 10_000_000, 12},
	}
}

// RunLeapBench executes the grid and writes a human-readable summary to out
// (if non-nil). Trials run single-threaded.
func RunLeapBench(cfg LeapBenchConfig, out io.Writer) (LeapBenchReport, error) {
	rep := LeapBenchReport{
		Schema: LeapBenchSchema,
		Go:     runtime.Version(),
		GOARCH: runtime.GOARCH,
		Smoke:  cfg.Smoke,
		Seed:   cfg.Seed,
	}
	for i, cell := range leapGrid(cfg.Smoke) {
		entry, err := runLeapCell(cell, rng.At(cfg.Seed, i).Uint64())
		if err != nil {
			return rep, fmt.Errorf("bench: leap %s n=%d: %w", cell.protocol, cell.n, err)
		}
		rep.Entries = append(rep.Entries, entry)
		if out != nil {
			fmt.Fprintf(out, "leap %-13s n=%-14d %6.2fs  mean T=%8.2f  ode %4.0f%% of time  regimes %s\n",
				entry.Protocol, entry.N, entry.Seconds, entry.MeanConsensusTime,
				entry.ODETimeFrac*100, entry.Regimes)
		}
	}
	for i, cell := range leapCalGrid() {
		cal, err := runLeapCalibration(cell, rng.At(cfg.Seed, 1000+i).Uint64())
		if err != nil {
			return rep, fmt.Errorf("bench: leap calibration %s n=%d: %w", cell.protocol, cell.n, err)
		}
		rep.Calibrations = append(rep.Calibrations, cal)
		if out != nil {
			fmt.Fprintf(out, "cal  %-13s n=%-14d exact T=%8.2f  leap T=%8.2f  rel err %.3f\n",
				cal.Protocol, cal.N, cal.ExactMeanTime, cal.LeapMeanTime, cal.RelTimeErr)
		}
	}
	return rep, nil
}

// leapRule resolves a registry spec to the occupancy rule the hybrid engine
// executes (dynamics.Rule and occupancy.Rule are structurally identical).
func leapRule(protocol string) (occupancy.Rule, error) {
	_, rule, err := protocols.Lookup(protocol)
	if err != nil {
		return nil, err
	}
	return rule, nil
}

// runLeapCell measures one protocol × size cell on the hybrid engine,
// calling occupancy.RunLeap directly for the regime diagnostics the public
// result type does not carry.
func runLeapCell(cell leapCell, seedBase uint64) (LeapBenchEntry, error) {
	entry := LeapBenchEntry{Protocol: cell.protocol, N: cell.n, Trials: cell.trials}
	rule, err := leapRule(cell.protocol)
	if err != nil {
		return entry, err
	}
	counts, err := plurality.Biased(int(cell.n), 4, 1)
	if err != nil {
		return entry, err
	}
	var (
		totalTicks, totalLeap, totalExact, totalODE int64
		totalTime, totalODETime                     float64
		elapsed                                     time.Duration
	)
	for trial := 0; trial < cell.trials; trial++ {
		seed := plurality.TrialSeed(seedBase, trial)
		s, err := sched.NewPoisson(int(cell.n), 1, rng.At(seed, 0))
		if err != nil {
			return entry, err
		}
		cs := append([]int64(nil), counts...)
		start := time.Now()
		res, err := occupancy.RunLeap(cs, rule, occupancy.Config{
			Scheduler: s,
			Rand:      rng.At(seed, 1),
			MaxTime:   1e6,
		}, occupancy.LeapConfig{})
		elapsed += time.Since(start)
		if err != nil && !errors.Is(err, occupancy.ErrTimeLimit) {
			return entry, err
		}
		totalTicks += res.Ticks
		totalLeap += res.LeapSteps
		totalExact += res.ExactTransitions
		totalODE += res.ODESteps
		if res.Time > 0 {
			totalODETime += res.ODETime / res.Time
		}
		if res.Done {
			entry.Converged++
			totalTime += res.Time
		}
		if trial == 0 {
			var regimes []string
			for _, sw := range res.Switches {
				regimes = append(regimes, sw.To.String())
				entry.SwitchTicks = append(entry.SwitchTicks, sw.Ticks)
			}
			entry.Regimes = strings.Join(regimes, ">")
		}
	}
	tf := float64(cell.trials)
	entry.Seconds = elapsed.Seconds()
	if entry.Converged > 0 {
		entry.MeanConsensusTime = totalTime / float64(entry.Converged)
	}
	entry.MeanTicks = float64(totalTicks) / tf
	entry.MeanLeapSteps = float64(totalLeap) / tf
	entry.MeanExactTransitions = float64(totalExact) / tf
	entry.MeanODESteps = float64(totalODE) / tf
	entry.ODETimeFrac = totalODETime / tf
	if totalTicks > 0 {
		entry.NsPerTick = entry.Seconds * 1e9 / float64(totalTicks)
	}
	return entry, nil
}

// runLeapCalibration runs the exact and the hybrid engine over the same
// workload (same seeds, a counts Job both times) and records the
// relative consensus-time error.
func runLeapCalibration(cell leapCell, seedBase uint64) (LeapCalibration, error) {
	cal := LeapCalibration{Protocol: cell.protocol, N: cell.n, Trials: cell.trials}
	counts, err := plurality.Biased(int(cell.n), 4, 1)
	if err != nil {
		return cal, err
	}
	meanTime := func(engine plurality.Engine) (float64, error) {
		var total float64
		for trial := 0; trial < cell.trials; trial++ {
			job, err := plurality.NewJob(cell.protocol, counts,
				plurality.WithSeed(plurality.TrialSeed(seedBase, trial)),
				plurality.WithModel(plurality.Poisson),
				plurality.WithEngine(engine),
				plurality.WithMaxTime(1e6))
			if err != nil {
				return 0, err
			}
			rep, err := job.Run(context.Background())
			if err != nil {
				return 0, err
			}
			total += rep.Time
		}
		return total / float64(cell.trials), nil
	}
	if cal.ExactMeanTime, err = meanTime(plurality.EngineOccupancy); err != nil {
		return cal, err
	}
	if cal.LeapMeanTime, err = meanTime(plurality.EngineLeap); err != nil {
		return cal, err
	}
	if cal.ExactMeanTime > 0 {
		cal.RelTimeErr = (cal.LeapMeanTime - cal.ExactMeanTime) / cal.ExactMeanTime
		if cal.RelTimeErr < 0 {
			cal.RelTimeErr = -cal.RelTimeErr
		}
	}
	return cal, nil
}

// WriteJSON serializes the report with stable indentation.
func (r LeapBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadLeapBench reads a BENCH_leap artifact and checks its schema.
func LoadLeapBench(path string) (LeapBenchReport, error) {
	var rep LeapBenchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("bench: %s: %w", path, err)
	}
	if rep.Schema != LeapBenchSchema {
		return rep, fmt.Errorf("bench: %s: schema %q, want %q", path, rep.Schema, LeapBenchSchema)
	}
	return rep, nil
}

// maxCalRelErr is the absolute ceiling on the calibration block's relative
// consensus-time error: the leap engine must stay within this of the exact
// engine regardless of what the baseline recorded. The leaping bias itself
// is well under 1% at the default Eps; the ceiling budgets the sampling
// noise of the calibration's trial counts (≈3σ) on top.
const maxCalRelErr = 0.08

// CompareLeap diffs a current leap report against a baseline within a
// relative tolerance band. Only machine-portable quantities gate: per-cell
// convergence, the deterministic tick counts and regime traces, and the
// calibration block's relative consensus-time error (which additionally must
// stay under the absolute maxCalRelErr ceiling). Wall-clock figures never
// gate.
func CompareLeap(cur, base LeapBenchReport, rel float64) []string {
	var regressions []string
	if cur.Schema != base.Schema {
		return []string{fmt.Sprintf("schema mismatch: current %q vs baseline %q", cur.Schema, base.Schema)}
	}
	if cur.Smoke != base.Smoke {
		return []string{fmt.Sprintf("grid mismatch: current smoke=%v vs baseline smoke=%v — compare like against like", cur.Smoke, base.Smoke)}
	}
	find := func(protocol string, n int64) *LeapBenchEntry {
		for i := range cur.Entries {
			if cur.Entries[i].Protocol == protocol && cur.Entries[i].N == n {
				return &cur.Entries[i]
			}
		}
		return nil
	}
	drifted := func(c, b float64) bool {
		if b == 0 {
			return c != 0
		}
		d := (c - b) / b
		if d < 0 {
			d = -d
		}
		return d > rel
	}
	for _, be := range base.Entries {
		ce := find(be.Protocol, be.N)
		if ce == nil {
			regressions = append(regressions, fmt.Sprintf("entry %s n=%d: present in baseline, missing from current run", be.Protocol, be.N))
			continue
		}
		if ce.Trials > 0 && be.Trials > 0 && ce.Converged*be.Trials < be.Converged*ce.Trials {
			regressions = append(regressions, fmt.Sprintf("entry %s n=%d: %d/%d converged (baseline %d/%d)",
				be.Protocol, be.N, ce.Converged, ce.Trials, be.Converged, be.Trials))
		}
		if drifted(ce.MeanTicks, be.MeanTicks) {
			regressions = append(regressions, fmt.Sprintf("entry %s n=%d: mean ticks %.3g drifted beyond %.0f%% from baseline %.3g (deterministic seeds: engine behavior changed)",
				be.Protocol, be.N, ce.MeanTicks, rel*100, be.MeanTicks))
		}
		if ce.Regimes != be.Regimes {
			regressions = append(regressions, fmt.Sprintf("entry %s n=%d: regime trace %q differs from baseline %q",
				be.Protocol, be.N, ce.Regimes, be.Regimes))
		} else {
			for i, bt := range be.SwitchTicks {
				if i < len(ce.SwitchTicks) && drifted(float64(ce.SwitchTicks[i]), float64(bt)) {
					regressions = append(regressions, fmt.Sprintf("entry %s n=%d: regime switch %d at tick %d drifted beyond %.0f%% from baseline %d",
						be.Protocol, be.N, i, ce.SwitchTicks[i], rel*100, bt))
				}
			}
		}
	}
	findCal := func(protocol string, n int64) *LeapCalibration {
		for i := range cur.Calibrations {
			if cur.Calibrations[i].Protocol == protocol && cur.Calibrations[i].N == n {
				return &cur.Calibrations[i]
			}
		}
		return nil
	}
	for _, bc := range base.Calibrations {
		cc := findCal(bc.Protocol, bc.N)
		if cc == nil {
			regressions = append(regressions, fmt.Sprintf("calibration %s n=%d: present in baseline, missing from current run", bc.Protocol, bc.N))
			continue
		}
		if cc.RelTimeErr > maxCalRelErr {
			regressions = append(regressions, fmt.Sprintf("calibration %s n=%d: leap consensus-time error %.3f exceeds the %.2f ceiling (exact %.2f vs leap %.2f)",
				bc.Protocol, bc.N, cc.RelTimeErr, maxCalRelErr, cc.ExactMeanTime, cc.LeapMeanTime))
		}
	}
	return regressions
}
