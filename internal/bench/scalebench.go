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
	"plurality/internal/rng"
)

// ScaleBenchSchema tags BENCH_scale artifacts so comparison refuses files
// written by an incompatible harness. v2 added the topology axis: entries
// carry a graph-family label and SpeedupAtN keys are family-qualified for
// non-clique families.
const ScaleBenchSchema = "plurality-scale/v2"

// ScaleBenchConfig configures the engine-scaling benchmark behind
// BENCH_scale.json: full Two-Choices consensus runs (biased workload,
// eps = 1, k = 4, Poisson model) per engine × topology × population size,
// measuring delivered-tick throughput, allocated bytes per node, and
// convergence.
type ScaleBenchConfig struct {
	// Smoke selects the CI-sized grid: per-node at 1e5 (clique and
	// random-regular d=8), occupancy at 1e5 and 1e7, lumped at 1e5 and
	// 1e7, a few seconds total. The full grid takes the per-node engine to
	// 1e6, the occupancy engine to 1e9, the lumped engine to 1e9 on the
	// annealed d=8 family and the hybrid leap engine to 1e12.
	Smoke bool
	// Seed roots every trial's randomness; the report is a pure function
	// of (config, binary).
	Seed uint64
}

// ScaleBenchEntry is one engine × size measurement over a few consensus
// runs.
type ScaleBenchEntry struct {
	// Engine is "per-node" (O(n) state, every activation walked),
	// "occupancy" (count-collapsed O(k) state on the clique, no-ops leapt
	// over), "lumped" (the degree-class count matrix on an annealed
	// configuration model, O(classes × k) state) or "leap" (the hybrid
	// tau-leap/mean-field engine, approximate).
	Engine string `json:"engine"`
	// Topology is the graph family: "complete", "regular8" (quenched
	// random 8-regular on the CSR fast path) or "annealed8" (annealed
	// 8-regular, the lumped engine's mean-field law).
	Topology string `json:"topology"`
	N        int64  `json:"n"`
	Trials   int    `json:"trials"`
	// Converged counts trials that reached consensus inside the budget.
	Converged int `json:"converged"`
	// MeanConsensusTime is the mean parallel time to consensus.
	MeanConsensusTime float64 `json:"meanConsensusTime"`
	// MeanTicks is the mean number of delivered activations (skipped
	// no-ops included for the occupancy engine — the apples-to-apples
	// figure). Deterministic given the seed, so baseline comparison treats
	// drift here as a behavior change, not noise.
	MeanTicks float64 `json:"meanTicks"`
	// TicksPerSec is total delivered activations over total wall time.
	TicksPerSec float64 `json:"ticksPerSec"`
	NsPerTick   float64 `json:"nsPerTick"`
	// BytesPerNode is the heap allocated by one full run divided by n —
	// the memory model: ~4–8 B/node for the per-node engine (the color
	// vector plus engine state), ~0 for the count-collapsed engine.
	BytesPerNode float64 `json:"bytesPerNode"`
	// AllocBytes is the raw allocation total of the measured run.
	AllocBytes uint64 `json:"allocBytes"`
	// Seconds is the total wall time of the entry.
	Seconds float64 `json:"seconds"`
	// MaxRSSBytes is the process peak RSS after this entry (monotone over
	// the report; the headline acceptance bound is < 4 GiB after the
	// occupancy 1e8 run).
	MaxRSSBytes int64 `json:"maxRSSBytes"`
}

// ScaleBenchReport is the full benchmark output, serialized to
// BENCH_scale.json (full grid) and BENCH_scale_baseline.json (smoke grid,
// the CI comparison target).
type ScaleBenchReport struct {
	Schema  string            `json:"schema"`
	Go      string            `json:"go"`
	GOARCH  string            `json:"goarch"`
	Smoke   bool              `json:"smoke,omitempty"`
	Seed    uint64            `json:"seed"`
	Entries []ScaleBenchEntry `json:"entries"`
	// SpeedupAtN maps a size key to the count-collapse throughput ratio
	// where both engines ran: "<n>" is ticksPerSec(occupancy)/
	// ticksPerSec(per-node) on the clique, "regular8/<n>" is
	// ticksPerSec(lumped on annealed8)/ticksPerSec(per-node on the
	// quenched regular8 CSR fast path) — the structured-topology headline.
	SpeedupAtN map[string]float64 `json:"speedupAtN"`
}

// scaleCell is one grid point of the benchmark.
type scaleCell struct {
	engine   string
	topology string
	n        int64
	trials   int
}

func scaleGrid(smoke bool) []scaleCell {
	if smoke {
		return []scaleCell{
			{"per-node", "complete", 100_000, 3},
			{"per-node", "regular8", 100_000, 2},
			{"occupancy", "complete", 100_000, 3},
			{"occupancy", "complete", 10_000_000, 2},
			{"lumped", "annealed8", 100_000, 2},
			{"lumped", "annealed8", 10_000_000, 2},
		}
	}
	return []scaleCell{
		{"per-node", "complete", 10_000, 4},
		{"per-node", "complete", 100_000, 4},
		{"per-node", "complete", 1_000_000, 3},
		{"per-node", "regular8", 10_000, 4},
		{"per-node", "regular8", 100_000, 4},
		{"per-node", "regular8", 1_000_000, 3},
		{"occupancy", "complete", 10_000, 4},
		{"occupancy", "complete", 100_000, 4},
		{"occupancy", "complete", 1_000_000, 3},
		{"occupancy", "complete", 10_000_000, 3},
		{"occupancy", "complete", 100_000_000, 2},
		{"occupancy", "complete", 1_000_000_000, 1},
		{"lumped", "annealed8", 100_000, 4},
		{"lumped", "annealed8", 1_000_000, 3},
		{"lumped", "annealed8", 10_000_000, 3},
		{"lumped", "annealed8", 100_000_000, 2},
		{"lumped", "annealed8", 1_000_000_000, 1},
		{"leap", "complete", 1_000_000, 3},
		{"leap", "complete", 10_000_000, 3},
		{"leap", "complete", 100_000_000, 2},
		{"leap", "complete", 1_000_000_000, 2},
		{"leap", "complete", 10_000_000_000, 2},
		{"leap", "complete", 100_000_000_000, 2},
		{"leap", "complete", 1_000_000_000_000, 2},
	}
}

// RunScaleBench executes the grid and writes a human-readable summary to
// out (if non-nil). Trials run single-threaded so the per-run allocation
// measurement is clean.
func RunScaleBench(cfg ScaleBenchConfig, out io.Writer) (ScaleBenchReport, error) {
	rep := ScaleBenchReport{
		Schema:     ScaleBenchSchema,
		Go:         runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Smoke:      cfg.Smoke,
		Seed:       cfg.Seed,
		SpeedupAtN: map[string]float64{},
	}
	rates := map[string]map[string]float64{} // engine -> family-qualified n -> ticks/sec
	for i, cell := range scaleGrid(cfg.Smoke) {
		entry, err := runScaleCell(cell, rng.At(cfg.Seed, i).Uint64())
		if err != nil {
			return rep, fmt.Errorf("bench: scale %s %s n=%d: %w", cell.engine, cell.topology, cell.n, err)
		}
		rep.Entries = append(rep.Entries, entry)
		if rates[cell.engine] == nil {
			rates[cell.engine] = map[string]float64{}
		}
		key := fmt.Sprintf("%d", cell.n)
		if cell.topology != "complete" {
			key = cell.topology + "/" + key
		}
		rates[cell.engine][key] = entry.TicksPerSec
		if out != nil {
			fmt.Fprintf(out, "%-10s %-9s n=%-11d %8.1f ns/tick %13.0f ticks/s  %7.2f B/node  mean T=%7.2f  rss=%dMB\n",
				entry.Engine, entry.Topology, entry.N, entry.NsPerTick, entry.TicksPerSec,
				entry.BytesPerNode, entry.MeanConsensusTime, entry.MaxRSSBytes>>20)
		}
	}
	for nKey, occ := range rates["occupancy"] {
		if per, ok := rates["per-node"][nKey]; ok && per > 0 {
			rep.SpeedupAtN[nKey] = occ / per
		}
	}
	// The structured-topology headline: the lumped engine's annealed d=8
	// cells against the per-node CSR fast path on the quenched d=8 family
	// of the same size (the exact oracle the lumped law is gated against).
	for nKey, lum := range rates["lumped"] {
		n, ok := strings.CutPrefix(nKey, "annealed8/")
		if !ok {
			continue
		}
		if per, ok := rates["per-node"]["regular8/"+n]; ok && per > 0 {
			rep.SpeedupAtN["regular8/"+n] = lum / per
		}
	}
	return rep, nil
}

// scaleGraphStream derives per-trial graph seeds; it matches the harness
// convention of claiming high stream indices (the runners use 0 and 1).
const scaleGraphStream = 1 << 10

// runScaleCell measures one engine × topology × size cell. Graph
// construction happens outside the timed region — ticks/sec measures the
// dynamics hot loop — but inside the allocation window, so BytesPerNode
// reports the family's real memory model (the CSR arena for regular8).
func runScaleCell(cell scaleCell, seedBase uint64) (ScaleBenchEntry, error) {
	entry := ScaleBenchEntry{Engine: cell.engine, Topology: cell.topology, N: cell.n, Trials: cell.trials}
	counts, err := plurality.Biased(int(cell.n), 4, 1)
	if err != nil {
		return entry, err
	}
	var (
		totalTicks int64
		totalTime  float64
		elapsed    time.Duration
	)
	for trial := 0; trial < cell.trials; trial++ {
		seed := plurality.TrialSeed(seedBase, trial)
		opts := []plurality.Option{
			plurality.WithSeed(seed),
			plurality.WithModel(plurality.Poisson),
		}
		measureAllocs := trial == 0
		var before runtime.MemStats
		if measureAllocs {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		var (
			rep plurality.Report
			err error
		)
		engine := plurality.EngineOccupancy
		switch cell.engine {
		case "per-node":
			var pop *plurality.Population
			pop, err = plurality.NewPopulation(counts)
			if err != nil {
				return entry, err
			}
			popOpts := append(opts, plurality.WithEngine(plurality.EnginePerNode))
			if cell.topology == "regular8" {
				g, gerr := plurality.RandomRegularGraph(int(cell.n), 8, rng.At(seed, scaleGraphStream).Uint64())
				if gerr != nil {
					return entry, gerr
				}
				popOpts = append(popOpts, plurality.WithGraph(g))
			}
			job, jerr := plurality.NewJob("two-choices", counts, popOpts...)
			if jerr != nil {
				return entry, jerr
			}
			start := time.Now()
			rep, err = job.RunOn(context.Background(), pop)
			elapsed += time.Since(start)
		case "lumped":
			g, gerr := plurality.AnnealedRegularGraph(int(cell.n), 8)
			if gerr != nil {
				return entry, gerr
			}
			opts = append(opts, plurality.WithGraph(g))
		case "leap":
			engine = plurality.EngineLeap
		}
		if cell.engine != "per-node" {
			// The count-collapsed cells run on the histogram: no
			// population is ever materialized.
			job, jerr := plurality.NewJob("two-choices", counts, append(opts, plurality.WithEngine(engine))...)
			if jerr != nil {
				return entry, jerr
			}
			start := time.Now()
			rep, err = job.Run(context.Background())
			elapsed += time.Since(start)
		}
		if err != nil && !errors.Is(err, plurality.ErrTimeLimit) {
			return entry, err
		}
		if measureAllocs {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			entry.AllocBytes = after.TotalAlloc - before.TotalAlloc
			entry.BytesPerNode = float64(entry.AllocBytes) / float64(cell.n)
		}
		totalTicks += rep.Ticks
		if rep.Converged {
			entry.Converged++
			totalTime += rep.Time
		}
	}
	entry.Seconds = elapsed.Seconds()
	if entry.Converged > 0 {
		entry.MeanConsensusTime = totalTime / float64(entry.Converged)
	}
	entry.MeanTicks = float64(totalTicks) / float64(cell.trials)
	if entry.Seconds > 0 {
		entry.TicksPerSec = float64(totalTicks) / entry.Seconds
		entry.NsPerTick = entry.Seconds * 1e9 / float64(totalTicks)
	}
	entry.MaxRSSBytes = maxRSSBytes()
	return entry, nil
}

// WriteJSON serializes the report with stable indentation.
func (r ScaleBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadScaleBench reads a BENCH_scale artifact and checks its schema.
func LoadScaleBench(path string) (ScaleBenchReport, error) {
	var rep ScaleBenchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("bench: %s: %w", path, err)
	}
	if rep.Schema != ScaleBenchSchema {
		return rep, fmt.Errorf("bench: %s: schema %q, want %q", path, rep.Schema, ScaleBenchSchema)
	}
	return rep, nil
}

// CompareScale diffs a current scale report against a baseline within a
// relative tolerance band, in the spirit of exp.Compare. Only
// machine-portable quantities gate: per-cell convergence, the deterministic
// tick counts, bytes/node, and the dimensionless occupancy/per-node speedup
// ratio. Absolute ticks/sec are hardware-bound and never compared.
func CompareScale(cur, base ScaleBenchReport, rel float64) []string {
	var regressions []string
	if cur.Schema != base.Schema {
		return []string{fmt.Sprintf("schema mismatch: current %q vs baseline %q", cur.Schema, base.Schema)}
	}
	if cur.Smoke != base.Smoke {
		return []string{fmt.Sprintf("grid mismatch: current smoke=%v vs baseline smoke=%v — compare like against like", cur.Smoke, base.Smoke)}
	}
	find := func(engine, topology string, n int64) *ScaleBenchEntry {
		for i := range cur.Entries {
			if cur.Entries[i].Engine == engine && cur.Entries[i].Topology == topology && cur.Entries[i].N == n {
				return &cur.Entries[i]
			}
		}
		return nil
	}
	for _, be := range base.Entries {
		ce := find(be.Engine, be.Topology, be.N)
		if ce == nil {
			regressions = append(regressions, fmt.Sprintf("entry %s %s n=%d: present in baseline, missing from current run", be.Engine, be.Topology, be.N))
			continue
		}
		if ce.Trials > 0 && be.Trials > 0 && ce.Converged*be.Trials < be.Converged*ce.Trials {
			regressions = append(regressions, fmt.Sprintf("entry %s %s n=%d: %d/%d converged (baseline %d/%d)",
				be.Engine, be.Topology, be.N, ce.Converged, ce.Trials, be.Converged, be.Trials))
		}
		if be.MeanTicks > 0 {
			drift := (ce.MeanTicks - be.MeanTicks) / be.MeanTicks
			if drift < 0 {
				drift = -drift
			}
			if drift > rel {
				regressions = append(regressions, fmt.Sprintf("entry %s %s n=%d: mean ticks %.0f drifted %.0f%% from baseline %.0f (deterministic seeds: engine behavior changed)",
					be.Engine, be.Topology, be.N, ce.MeanTicks, drift*100, be.MeanTicks))
			}
		}
		// One spare byte per node of slack keeps allocator noise on the
		// nearly-zero occupancy figures from flagging.
		if ce.BytesPerNode > be.BytesPerNode*(1+rel)+1 {
			regressions = append(regressions, fmt.Sprintf("entry %s %s n=%d: %.2f B/node exceeds baseline %.2f by more than %.0f%%",
				be.Engine, be.Topology, be.N, ce.BytesPerNode, be.BytesPerNode, rel*100))
		}
	}
	for nKey, baseRatio := range base.SpeedupAtN {
		curRatio, ok := cur.SpeedupAtN[nKey]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("speedup at n=%s: missing from current run", nKey))
			continue
		}
		if curRatio < baseRatio*(1-rel) {
			regressions = append(regressions, fmt.Sprintf("speedup at n=%s: %.1fx below baseline %.1fx by more than %.0f%%",
				nKey, curRatio, baseRatio, rel*100))
		}
	}
	return regressions
}
