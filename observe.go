package plurality

import (
	"plurality/internal/core"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/protocols/onebit"
	"plurality/internal/trace"
)

// Snapshot is one streamed observation of a running protocol, delivered to
// the WithObserver callback. Every runner family produces the same shape:
// asynchronous runs (core, the sampling dynamics on either engine) snapshot
// by parallel time, synchronous runs by round, and OneExtraBit by phase.
//
// Counts aliases runner-owned scratch memory and is valid only for the
// duration of the callback — copy it to retain it.
type Snapshot struct {
	// Time locates the snapshot: parallel time for asynchronous runs, the
	// completed round count for synchronous dynamics, and the completed
	// phase count for OneExtraBit.
	Time float64
	// Ticks is the number of asynchronous activations delivered so far (0
	// for synchronous runners).
	Ticks int64
	// Rounds is the number of synchronous rounds completed so far (0 for
	// asynchronous runners).
	Rounds int
	// Counts is the current color histogram.
	Counts []int64
	// Undecided is the current number of undecided (USD) nodes; 0 for
	// protocols without an undecided state.
	Undecided int64
	// ConvergedFraction is the support fraction of the current leading
	// color over all nodes (undecided included), reaching 1 exactly at
	// consensus.
	ConvergedFraction float64
}

// WithObserver streams periodic Snapshots from any runner: every interval
// units of parallel time on the asynchronous engines (the count-collapsed
// occupancy engine included), every max(1, ⌊interval⌋) rounds on the
// synchronous dynamics engine, and every phase on OneExtraBit. The stream
// always ends with a snapshot of the state the run ended in (consensus,
// budget exhaustion or cancellation). It is the uniform observation surface
// of every runner (WithProbe adds the core protocol's sync-quality probes);
// unlike the dynamics OnTick hook it does not force the per-node engine.
//
// Observation changes no protocol decision, but it can change which
// *trajectory* a fixed seed produces on the count-collapsed engine: leap
// mode's lazily materialized tick times cannot be queried per transition,
// so an observed counts run executes tick by tick instead (identical
// distribution, different RNG stream). Unobserved runs are bit-identical
// with or without this option available.
//
// The callback runs synchronously on the simulation goroutine; Job.Trials
// may invoke it concurrently from different trial workers.
func WithObserver(interval float64, fn func(Snapshot)) Option {
	return optionFunc(func(o *options) {
		o.mark(idObserver)
		o.observeInterval = interval
		o.onSnapshot = fn
	})
}

// convergedFraction returns the leading-color support fraction over all
// nodes, undecided included.
func convergedFraction(counts []int64, undecided int64) float64 {
	var max, total int64
	for _, v := range counts {
		total += v
		if v > max {
			max = v
		}
	}
	total += undecided
	if total == 0 {
		return 0
	}
	return float64(max) / float64(total)
}

// fillCounts copies pop's histogram into buf, growing it as needed — the
// allocation-free equivalent of pop.Counts() for observer callbacks.
func fillCounts(buf []int64, pop *Population) []int64 {
	k := pop.K()
	if cap(buf) < k {
		buf = make([]int64, k)
	}
	buf = buf[:k]
	for c := 0; c < k; c++ {
		buf[c] = pop.Count(Color(c))
	}
	return buf
}

// asyncObserver adapts the public observer onto the dynamics engines'
// snapshot hook (shared by the per-node and count-collapsed paths).
func (o *options) asyncObserver() (interval float64, fn func(dynamics.Snapshot)) {
	if o.onSnapshot == nil {
		return 0, nil
	}
	return o.observeInterval, func(s dynamics.Snapshot) {
		o.onSnapshot(Snapshot{
			Time:              s.Time,
			Ticks:             s.Ticks,
			Counts:            s.Counts,
			Undecided:         s.Undecided,
			ConvergedFraction: convergedFraction(s.Counts, s.Undecided),
		})
	}
}

// coreObserver wires the public observer into a core config: the engine
// reports (time, ticks) instants and the adapter reads the histogram off
// the live population during the callback.
func (o *options) coreObserver(cfg *core.Config, pop *Population) {
	if o.onSnapshot == nil {
		return
	}
	var buf []int64
	cfg.ObserveInterval = o.observeInterval
	cfg.OnObserve = func(now float64, ticks int64) {
		buf = fillCounts(buf, pop)
		o.onSnapshot(Snapshot{
			Time:              now,
			Ticks:             ticks,
			Counts:            buf,
			Undecided:         pop.Undecided(),
			ConvergedFraction: convergedFraction(buf, pop.Undecided()),
		})
	}
}

// syncObserver adapts the public observer onto the synchronous dynamics
// engine's per-round hook, sampling every max(1, ⌊interval⌋) rounds plus
// the round the run ends on — consensus, budget exhaustion (onRound) or
// cancellation (final, invoked by execSync because the engine stops
// between rounds, where no hook fires).
type syncObserver struct {
	o         *options
	every     int
	buf       []int64
	lastRound int // rounds covered by the last emission; -1 = none
}

// newSyncObserver returns nil when no observer is registered; the nil
// receiver is valid for onRound and final.
func (o *options) newSyncObserver() *syncObserver {
	if o.onSnapshot == nil {
		return nil
	}
	every := int(o.observeInterval)
	if every < 1 {
		every = 1
	}
	return &syncObserver{o: o, every: every, lastRound: -1}
}

// onRound returns the engine hook (nil when unobserved).
func (s *syncObserver) onRound() func(round int, pop *Population) {
	if s == nil {
		return nil
	}
	return func(round int, pop *Population) {
		if (round+1)%s.every != 0 && round+1 != s.o.maxRounds && !pop.IsUnanimous() {
			return
		}
		s.emit(round+1, pop)
	}
}

func (s *syncObserver) emit(rounds int, pop *Population) {
	s.buf = fillCounts(s.buf, pop)
	s.lastRound = rounds
	s.o.onSnapshot(Snapshot{
		Time:              float64(rounds),
		Rounds:            rounds,
		Counts:            s.buf,
		Undecided:         pop.Undecided(),
		ConvergedFraction: convergedFraction(s.buf, pop.Undecided()),
	})
}

// final closes the stream with the state an interrupted run ended in,
// unless the closing round already emitted.
func (s *syncObserver) final(rounds int, pop *Population) {
	if s == nil || s.lastRound == rounds {
		return
	}
	s.emit(rounds, pop)
}

// oneBitObserver adapts the public observer onto OneExtraBit's per-phase
// hook. Snapshot.Time is the completed phase count (onebit.PhaseInfo does
// not track cumulative rounds). final closes the stream for interrupted
// runs, which end without a phase boundary.
type oneBitObserver struct {
	o         *options
	buf       []int64
	lastPhase int // phases covered by the last emission; -1 = none
}

// newOneBitObserver returns nil when no observer is registered; the nil
// receiver is valid for hook and final.
func (o *options) newOneBitObserver() *oneBitObserver {
	if o.onSnapshot == nil {
		return nil
	}
	return &oneBitObserver{o: o, lastPhase: -1}
}

// hook returns the engine's per-phase callback: nil when unobserved, else
// the snapshot emitter.
func (s *oneBitObserver) hook() func(onebit.PhaseInfo) {
	if s == nil {
		return nil
	}
	return func(info onebit.PhaseInfo) {
		s.lastPhase = info.Phase + 1
		s.o.onSnapshot(Snapshot{
			Time:              float64(info.Phase + 1),
			Counts:            info.Counts,
			ConvergedFraction: convergedFraction(info.Counts, 0),
		})
	}
}

// final closes the stream with the state an interrupted run ended in,
// unless the last completed phase already emitted it (runs stopped exactly
// at a phase boundary).
func (s *oneBitObserver) final(phases int, pop *Population) {
	if s == nil || s.lastPhase == phases {
		return
	}
	s.buf = fillCounts(s.buf, pop)
	s.o.onSnapshot(Snapshot{
		Time:              float64(phases),
		Counts:            s.buf,
		ConvergedFraction: convergedFraction(s.buf, 0),
	})
}

// Trajectory records observed runs as time series — the public face of the
// internal trace recorder. Attach it to any run via Observer and render the
// recorded support trajectory afterwards:
//
//	traj := plurality.NewTrajectory()
//	job, _ := plurality.NewJob("voter", counts, traj.Observer(10))
//	job.Run(ctx)
//	fmt.Println(traj.Sparkline(40))
//
// A Trajectory is not safe for concurrent use; give each trial its own
// (Job.Trials invokes observers from parallel workers).
type Trajectory struct {
	rec *trace.Recorder
}

// Trajectory series names.
const (
	// SeriesConverged is the leading-color support fraction over time.
	SeriesConverged = "converged"
	// SeriesUndecided is the undecided-node count over time.
	SeriesUndecided = "undecided"
)

// NewTrajectory returns an empty trajectory recorder.
func NewTrajectory() *Trajectory {
	return &Trajectory{rec: trace.NewRecorder()}
}

// Observer returns the option that streams the run into the trajectory,
// recording the converged fraction and the undecided count every interval
// (see WithObserver for interval semantics).
func (tr *Trajectory) Observer(interval float64) Option {
	return WithObserver(interval, tr.Record)
}

// Record appends one snapshot to the trajectory; it is the callback
// Observer registers and may be passed to WithObserver directly.
func (tr *Trajectory) Record(s Snapshot) {
	tr.rec.Record(SeriesConverged, s.Time, s.ConvergedFraction)
	tr.rec.Record(SeriesUndecided, s.Time, float64(s.Undecided))
}

// Len returns the number of recorded snapshots.
func (tr *Trajectory) Len() int {
	s := tr.rec.Series(SeriesConverged)
	if s == nil {
		return 0
	}
	return s.Len()
}

// Last returns the most recent converged fraction (0 when empty).
func (tr *Trajectory) Last() float64 {
	s := tr.rec.Series(SeriesConverged)
	if s == nil {
		return 0
	}
	return s.Last()
}

// Series returns the recorded (times, values) of the named series
// (SeriesConverged, SeriesUndecided); both slices are nil for an unrecorded
// name.
func (tr *Trajectory) Series(name string) (times, values []float64) {
	s := tr.rec.Series(name)
	if s == nil {
		return nil, nil
	}
	return s.X, s.Y
}

// Sparkline renders the converged-fraction trajectory as a fixed-width
// unicode sparkline ("" when nothing was recorded).
func (tr *Trajectory) Sparkline(width int) string {
	s := tr.rec.Series(SeriesConverged)
	if s == nil {
		return ""
	}
	return trace.Sparkline(s.Y, width)
}
