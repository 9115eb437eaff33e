package occupancy

import (
	"plurality/internal/rng"
)

// Kernel is the histogram-level transition law of a memoryless rule on the
// complete graph: everything the leap engine needs to simulate the
// occupancy process one *effective* activation at a time. An activation is
// effective when it changes the color histogram; all other activations are
// no-ops the engine skips in bulk.
//
// The contract is two-phase. EffectiveProb prepares a histogram: it
// computes the state's per-color weights and their totals once and keeps
// them in the kernel, which may also keep a reference to counts.
// SampleTransition then draws from that prepared state, so the engine pays
// for each histogram's law once per transition instead of once per method.
// The histogram must not change between the two calls, and any other call
// on the kernel (EffectiveProb on another histogram, FlowKernel.Flows)
// replaces the prepared state. Kernels carry this scratch, so every
// OccupancyKernel call returns a fresh instance owned by one run; after
// the first call on a histogram size neither phase allocates.
//
// Probabilities are computed in float64 — exact up to rounding, the same
// precision class as the Bernoulli/geometric draws of the per-node engines.
type Kernel interface {
	// EffectiveProb prepares the kernel for counts (summing to n; withSelf:
	// neighbor draws include the activated node itself) and returns the
	// probability that a single activation of a uniformly random node
	// changes the histogram.
	EffectiveProb(counts []int64, n int64, withSelf bool) float64
	// SampleTransition draws the (from, to) color pair of a histogram
	// change on the histogram the last EffectiveProb call prepared,
	// conditioned on the activation being effective. from != to. It must
	// follow an EffectiveProb call that returned a positive probability;
	// repeated calls draw independently from the same prepared state.
	SampleTransition(r *rng.RNG) (from, to int)
}

// Kerneled is implemented by rules that expose their exact count-level
// transition law. A rule without a kernel still runs count-collapsed, just
// activation by activation instead of transition by transition.
// OccupancyKernel returns a fresh kernel per call: kernels keep the state
// EffectiveProb prepares, so one instance serves one run.
type Kerneled interface {
	OccupancyKernel() Kernel
}

// FlowKernel is a Kernel that additionally exposes the full per-activation
// flow law in the n → ∞ fraction limit — what the hybrid leap engine needs
// to fire many transitions per step (tau-leaping) and to integrate the
// mean-field ODE. Flows fills out (len k·k, row-major over k = len(x)
// buckets) with
//
//	out[c*k+d] = lim P(one activation moves a node from bucket c to d)
//
// at fractions x, for c ≠ d; diagonal entries must be written as 0. The
// limit drops the O(1/n) self-exclusion corrections of the exact kernel,
// which is sound exactly where the leap engine runs: buckets below the
// exact-regime cutoff are simulated by the jump chain, never leapt.
type FlowKernel interface {
	Kernel
	Flows(x, out []float64)
}

// Grow returns (*buf)[:n], reallocating *buf only when it is short. A
// kernel carves its weight slices from one such array, so they cost one
// allocation per run and none per histogram.
func Grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// --- Two-Choices ---------------------------------------------------------

// TwoChoicesKernel is the count-level law of the Two-Choices rule: sample
// two neighbors with replacement, adopt their color iff they agree. With
// own color c and both samples d ≠ c the histogram moves one node from c to
// d; every other outcome is a no-op. Writing A = Σ n_d² and B = Σ n_d³, the
// per-activation effective probability is (A·n − B)/(n·(n−1)²) without
// self-sampling (the δ-correction for d = c cancels because d = c is never
// effective) and (A·n − B)/n³ with it.
type TwoChoicesKernel struct {
	counts []int64
	a      float64   // A
	total  float64   // A·n − B, the closed-form total of leave
	leave  []float64 // n_c·(A − n_c²)
	sq     []float64 // n_d², the destination weights
	buf    []float64 // backs leave and sq
}

// EffectiveProb implements Kernel.
func (kn *TwoChoicesKernel) EffectiveProb(counts []int64, n int64, withSelf bool) float64 {
	k := len(counts)
	ws := Grow(&kn.buf, 2*k)
	kn.counts, kn.leave, kn.sq = counts, ws[:k], ws[k:]
	var a, b float64
	for d, v := range counts {
		f := float64(v)
		f2 := f * f
		kn.sq[d] = f2
		a += f2
		b += f2 * f
	}
	for c, v := range counts {
		f := float64(v)
		kn.leave[c] = f * (a - f*f)
	}
	nf := float64(n)
	kn.a, kn.total = a, a*nf-b
	qden := nf - 1
	if withSelf {
		qden = nf
	}
	return (a*nf - b) / (nf * qden * qden)
}

// SampleTransition implements Kernel: (from, to) with probability
// proportional to n_from · n_to², to ≠ from. Both weight totals have closed
// forms (A·n − B and A − n_from²), so no scan precedes either pick.
func (kn *TwoChoicesKernel) SampleTransition(r *rng.RNG) (from, to int) {
	from = WeightedPick(r, kn.total, kn.leave)
	ff := float64(kn.counts[from])
	to = WeightedPickExcept(r, kn.a-ff*ff, kn.sq, from)
	return from, to
}

// Flows implements FlowKernel: a node of color c moves to d when both
// samples hit d, so F_cd = x_c · x_d².
func (*TwoChoicesKernel) Flows(x, out []float64) {
	k := len(x)
	for c := 0; c < k; c++ {
		for d := 0; d < k; d++ {
			if d == c {
				out[c*k+d] = 0
				continue
			}
			out[c*k+d] = x[c] * x[d] * x[d]
		}
	}
}

// --- Voter ---------------------------------------------------------------

// VoterKernel is the count-level law of the Voter rule: sample one neighbor
// and adopt its color unconditionally. The activation is effective iff the
// sample differs from the own color, which happens with total probability
// (n² − A)/(n(n−1)) without self-sampling and (n² − A)/n² with it.
type VoterKernel struct {
	nf    float64
	total float64   // n² − A, the closed-form total of leave
	leave []float64 // n_c·(n − n_c)
	f     []float64 // n_d, the destination weights
	buf   []float64 // backs leave and f
}

// EffectiveProb implements Kernel.
func (kn *VoterKernel) EffectiveProb(counts []int64, n int64, withSelf bool) float64 {
	k := len(counts)
	ws := Grow(&kn.buf, 2*k)
	kn.leave, kn.f = ws[:k], ws[k:]
	nf := float64(n)
	var a float64
	for c, v := range counts {
		f := float64(v)
		kn.f[c] = f
		kn.leave[c] = f * (nf - f)
		a += f * f
	}
	kn.nf, kn.total = nf, nf*nf-a
	qden := nf - 1
	if withSelf {
		qden = nf
	}
	return (nf*nf - a) / (nf * qden)
}

// SampleTransition implements Kernel: (from, to) with probability
// proportional to n_from · n_to, to ≠ from.
func (kn *VoterKernel) SampleTransition(r *rng.RNG) (from, to int) {
	from = WeightedPick(r, kn.total, kn.leave)
	to = WeightedPickExcept(r, kn.nf-kn.f[from], kn.f, from)
	return from, to
}

// Flows implements FlowKernel: a node of color c adopts the single sample,
// so F_cd = x_c · x_d. The flow matrix is symmetric — the Voter drift is
// identically zero (the martingale), which the leap engine's ODE regime
// detects as a stall and sidesteps.
func (*VoterKernel) Flows(x, out []float64) {
	k := len(x)
	for c := 0; c < k; c++ {
		for d := 0; d < k; d++ {
			if d == c {
				out[c*k+d] = 0
				continue
			}
			out[c*k+d] = x[c] * x[d]
		}
	}
}

// --- 3-Majority ----------------------------------------------------------

// ThreeMajorityKernel is the count-level law of the 3-Majority rule: sample
// three neighbors with replacement, adopt the majority color among the
// samples, or the first sample when all three differ. Given the neighbor
// distribution q of an activated node, the adopted color is d with
// probability 3q_d²(1−q_d) + q_d³ + q_d[(1−q_d)² − (S₂ − q_d²)] where
// S₂ = Σ q_e² (the three terms: exactly two matches anywhere, all three
// match, first-sample tiebreak over three distinct colors).
type ThreeMajorityKernel struct {
	counts   []int64
	nf, a    float64 // n and Σ n_e²
	withSelf bool
	total    float64   // Σ leave
	leave    []float64 // n_c·P(adopt ≠ c)
	dest     []float64 // P(adopt = d) for the drawn mover
	buf      []float64 // backs leave and dest
}

// threeMajAdopt returns P(adopted color = d) for a color with neighbor
// probability q under sample second moment s2. Rounding can push the
// all-distinct term slightly negative near consensus; the result is clamped
// at 0.
func threeMajAdopt(q, s2 float64) float64 {
	p := 3*q*q*(1-q) + q*q*q + q*((1-q)*(1-q)-(s2-q*q))
	if p < 0 {
		return 0
	}
	return p
}

// law returns the neighbor-law denominator and the sample second moment S₂
// seen by an activated node of color c: with self-sampling every node sees
// n_e/n, without it n_e/(n−1) with its own color short by one.
func (kn *ThreeMajorityKernel) law(c int) (qden, s2 float64) {
	if kn.withSelf {
		return kn.nf, kn.a / (kn.nf * kn.nf)
	}
	qden = kn.nf - 1
	fc := float64(kn.counts[c])
	return qden, (kn.a - 2*fc + 1) / (qden * qden)
}

// EffectiveProb implements Kernel.
func (kn *ThreeMajorityKernel) EffectiveProb(counts []int64, n int64, withSelf bool) float64 {
	k := len(counts)
	ws := Grow(&kn.buf, 2*k)
	kn.counts, kn.withSelf, kn.leave, kn.dest = counts, withSelf, ws[:k], ws[k:]
	nf := float64(n)
	var a float64
	for _, v := range counts {
		f := float64(v)
		a += f * f
	}
	kn.nf, kn.a = nf, a
	var sum float64
	for c, v := range counts {
		kn.leave[c] = 0
		if v == 0 {
			continue
		}
		qden, s2 := kn.law(c)
		nc := float64(v)
		if !withSelf {
			nc--
		}
		if w := 1 - threeMajAdopt(nc/qden, s2); w > 0 {
			kn.leave[c] = float64(v) * w
			sum += kn.leave[c]
		}
	}
	kn.total = sum
	return sum / nf
}

// SampleTransition implements Kernel: own color c with probability
// proportional to n_c · P(adopt ≠ c), then the adopted color d ≠ c with
// probability proportional to P(adopt = d) under c's neighbor law, whose
// S₂ is the same for every destination.
func (kn *ThreeMajorityKernel) SampleTransition(r *rng.RNG) (from, to int) {
	from = WeightedPick(r, kn.total, kn.leave)
	qden, s2 := kn.law(from)
	var dTotal float64
	for d, v := range kn.counts {
		if d == from {
			continue
		}
		kn.dest[d] = threeMajAdopt(float64(v)/qden, s2)
		dTotal += kn.dest[d]
	}
	to = WeightedPickExcept(r, dTotal, kn.dest, from)
	return from, to
}

// Flows implements FlowKernel: in the fraction limit the neighbor law is x
// itself, so F_cd = x_c · threeMajAdopt(x_d, S₂) with S₂ = Σ x_e².
func (*ThreeMajorityKernel) Flows(x, out []float64) {
	k := len(x)
	var s2 float64
	for _, f := range x {
		s2 += f * f
	}
	for c := 0; c < k; c++ {
		for d := 0; d < k; d++ {
			if d == c {
				out[c*k+d] = 0
				continue
			}
			out[c*k+d] = x[c] * threeMajAdopt(x[d], s2)
		}
	}
}

// --- weighted sampling helpers ------------------------------------------
// Exported so kernel implementations in the protocol packages (usd,
// jmajority) share the same rounding-drift handling as the built-ins.

// WeightedPick draws an index with probability proportional to w[c], given
// the precomputed total. Non-positive weights are never drawn. Rounding
// drift is absorbed by returning the last positively weighted index when
// the scan runs past the end.
func WeightedPick(r *rng.RNG, total float64, w []float64) int {
	x := r.Float64() * total
	last := 0
	for c, wc := range w {
		if wc <= 0 {
			continue
		}
		if x < wc {
			return c
		}
		x -= wc
		last = c
	}
	return last
}

// WeightedPickExcept is WeightedPick over all indices but skip (w[skip] is
// ignored).
func WeightedPickExcept(r *rng.RNG, total float64, w []float64, skip int) int {
	x := r.Float64() * total
	last := -1
	for c, wc := range w {
		if c == skip || wc <= 0 {
			continue
		}
		if x < wc {
			return c
		}
		x -= wc
		last = c
	}
	if last >= 0 {
		return last
	}
	// Degenerate weights (all zero by rounding): fall back to any index
	// different from skip; callers guarantee k >= 2.
	if skip == 0 {
		return 1
	}
	return 0
}
