// Package jmajority implements the parameterized j-Majority dynamic: on
// activation a node samples j nodes uniformly at random with replacement
// and adopts the most frequent color among the samples, breaking ties
// uniformly at random among the tied colors.
//
// The sample size turns "which rule?" into a sweepable axis of the
// h-majority family studied in the gossip-model plurality-consensus
// literature (Becchetti et al.; Ghaffari & Parter): j = 1 is exactly the
// Voter dynamic, and j = 3 is distributionally identical to 3-Majority —
// the built-in's first-sample tie-break is uniform over the three tied
// colors by exchangeability of i.i.d. samples — while larger j buys
// stronger drift toward the plurality at a higher per-step sample cost.
//
// The count-level transition law has no product closed form for general j,
// so Kernel evaluates it exactly with a multinomial dynamic program over
// the sample composition; it is verified against full enumeration of the
// rule like the built-in kernels. One DP step folds one color into a table
// of O(j²/m) cells per tie level m. A transition of the exact jump chain
// costs one prefix pass (k folds per tie level) plus, per color d, a
// suffix of k−1−d folds — about k²/2 folds per tie level to prepare all k
// leave weights — and, without self-sampling, as much again for the k−1
// destination weights under the drawn mover's law (with self-sampling the
// destinations reuse the leave stage's adoption probabilities). At j = 5,
// k = 8 that is about 22 µs per transition on a 2-vCPU Intel Xeon
// (BenchmarkKernelTransition in internal/occupancy).
package jmajority

import (
	"fmt"

	"plurality/internal/occupancy"
	"plurality/internal/population"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/rng"
)

// MaxJ bounds the sample size: the kernel's DP tables and the per-node
// O(j²) majority scan stay cheap, and factorials up to MaxJ! remain exact
// in float64.
const MaxJ = 16

// Rule is the j-Majority update rule for a fixed sample size J.
type Rule struct {
	// J is the number of samples per activation (1 ≤ J ≤ MaxJ).
	J int
}

var (
	_ dynamics.Rule      = Rule{}
	_ occupancy.Kerneled = Rule{}
)

// New validates the sample size and returns the rule.
func New(j int) (Rule, error) {
	if j < 1 || j > MaxJ {
		return Rule{}, fmt.Errorf("jmajority: j = %d, want 1 <= j <= %d", j, MaxJ)
	}
	return Rule{J: j}, nil
}

// Name implements dynamics.Rule.
func (r Rule) Name() string { return fmt.Sprintf("j-majority:%d", r.J) }

// SampleCount implements dynamics.Rule.
func (r Rule) SampleCount() int { return r.J }

// Next implements dynamics.Rule: adopt the most frequent sampled color,
// ties broken uniformly at random (reservoir selection over the tied-top
// colors, so no per-call allocation).
func (Rule) Next(r *rng.RNG, _ population.Color, sampled []population.Color) population.Color {
	best := population.None
	bestCnt, ties := 0, 0
	for i := 0; i < len(sampled); i++ {
		c := sampled[i]
		dup := false
		for l := 0; l < i; l++ {
			if sampled[l] == c {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		cnt := 1
		for l := i + 1; l < len(sampled); l++ {
			if sampled[l] == c {
				cnt++
			}
		}
		switch {
		case cnt > bestCnt:
			best, bestCnt, ties = c, cnt, 1
		case cnt == bestCnt:
			ties++
			if r.Intn(ties) == 0 {
				best = c
			}
		}
	}
	return best
}

// OccupancyKernel implements occupancy.Kerneled. The kernel carries DP
// scratch and the prepared state, so each run gets a fresh instance.
func (r Rule) OccupancyKernel() occupancy.Kernel { return &Kernel{J: r.J} }

// Kernel is the exact count-level law of j-Majority. For an activated node
// with neighbor distribution q, the probability that color d is adopted is
//
//	P(A = d) = Σ_{m≥1} Σ_{t≥0} P(X_d = m, t other colors at m, rest < m) / (t+1)
//
// with X ~ Multinomial(j, q); the inner probability is evaluated by a
// dynamic program over the non-d colors that tracks (samples used, number
// of colors tied at m), carrying the multinomial weight q_e^x/x! per color
// so the composition count never has to be enumerated.
//
// The DPs of one histogram share most of their work. Every leave weight
// folds the other colors at the same law n_e/(n−1) (n_e/n with
// self-sampling) — only the own color's q_c differs, and it never enters a
// fold — and every destination weight folds the drawn mover's law. So per
// tie level m the kernel keeps one table per color d holding the fold over
// the colors < d, and color d's DP starts from that prefix and folds only
// d+1 … k−1, in the same order as a DP from scratch.
type Kernel struct {
	// J is the sample size.
	J int

	withSelf bool
	total    float64   // Σ leave
	q        []float64 // fold law: n_e/(n−1), or n_e/n with self-sampling
	qOwn     []float64 // own-color probability: (n_c−1)/(n−1), or q
	adopt    []float64 // P(adopt = c) for an activated node of color c
	leave    []float64 // n_c·(1 − adopt[c])
	dest     []float64 // P(adopt = d) for the drawn mover
	fact     []float64 // factorials 0! … J!
	w        []float64 // fold weights q_e^x/x!, row e of J+1 per color
	tiers    []tier    // one per tie level m = 1 … J
	g, gNext []float64 // suffix fold scratch

	// The drawn mover (-1 while preparing) folds at qMover, with weights
	// wMover, instead of at q[mover].
	mover  int
	qMover float64
	wMover []float64
}

// tier holds the flattened (s, t) DP tables of one tie level m: s samples
// used, t colors tied at exactly m, all folded colors at most m.
type tier struct {
	m, rest, width, size int
	// pre holds k tables under the fold law; table d folds colors < d.
	pre []float64
	// preMover holds the same under the drawn mover's law; table d is
	// valid for d > mover (below it the two laws agree, so pre serves).
	preMover []float64
}

// init sizes the scratch for k colors (idempotent).
func (kn *Kernel) init(k int) {
	if len(kn.fact) == kn.J+1 && len(kn.q) == k {
		return
	}
	kn.fact = make([]float64, kn.J+1)
	kn.fact[0] = 1
	for i := 1; i <= kn.J; i++ {
		kn.fact[i] = kn.fact[i-1] * float64(i)
	}
	kn.tiers = make([]tier, kn.J)
	maxSize := 0
	for m := 1; m <= kn.J; m++ {
		rest := kn.J - m
		// Each color tied at m consumes m samples, so at most rest/m tie.
		width := rest/m + 1
		size := (rest + 1) * width
		kn.tiers[m-1] = tier{m: m, rest: rest, width: width, size: size,
			pre: make([]float64, k*size), preMover: make([]float64, k*size)}
		maxSize = max(maxSize, size)
	}
	kn.g = make([]float64, maxSize)
	kn.gNext = make([]float64, maxSize)
	for _, v := range []*[]float64{&kn.q, &kn.qOwn, &kn.adopt, &kn.leave, &kn.dest} {
		*v = make([]float64, k)
	}
	kn.w = make([]float64, k*(kn.J+1))
	kn.wMover = make([]float64, kn.J+1)
}

// weights fills w[x] = q^x/x! for x = 0 … J, the per-sample-count factors
// every fold of a color at probability q multiplies by.
func (kn *Kernel) weights(w []float64, q float64) {
	qPow := 1.0
	for x := range w {
		w[x] = qPow / kn.fact[x]
		qPow *= q
	}
}

// law returns color e's fold probability and weights, the mover's own
// when e is the drawn mover.
func (kn *Kernel) law(e int) (float64, []float64) {
	if e == kn.mover {
		return kn.qMover, kn.wMover
	}
	return kn.q[e], kn.w[e*(kn.J+1) : (e+1)*(kn.J+1)]
}

// setLaw makes q the fold law: it fills the fold weights and clears the
// mover.
func (kn *Kernel) setLaw() {
	kn.mover = -1
	for e, qe := range kn.q {
		kn.weights(kn.w[e*(kn.J+1):(e+1)*(kn.J+1)], qe)
	}
}

// fold writes into next the table g extended by one color with fold
// weights w (see weights): x of the new color's samples move cell (s, t) to
// (s+x, t), or to (s+x, t+1) when x = m ties it. Every target cell gets at
// most one term per x, added in increasing x, so the sums are those of a
// cell-by-cell scan. With full false only the last row (all samples used),
// the one a finished DP reads, is written.
func fold(next, g, w []float64, tr *tier, full bool) {
	m, rest, width := tr.m, tr.rest, tr.width
	if full {
		clear(next)
	} else {
		clear(next[rest*width:])
	}
	for x := 0; x <= m && x <= rest; x++ {
		wx := w[x]
		s := 0
		if !full {
			s = rest - x
		}
		for ; s+x <= rest; s++ {
			src := g[s*width : (s+1)*width]
			dst := next[(s+x)*width : (s+x+1)*width]
			if x < m {
				for t, v := range src {
					dst[t] += v * wx
				}
				continue
			}
			// A zero-sample color never ties (m ≥ 1), so x = m > 0 here.
			for t, v := range src[:width-1] {
				dst[t+1] += v * wx
			}
		}
	}
}

// prefixes builds every tier's prefix tables under kn.q from scratch.
func (kn *Kernel) prefixes() {
	k := len(kn.q)
	for i := range kn.tiers {
		tr := &kn.tiers[i]
		t0 := tr.pre[:tr.size]
		clear(t0)
		t0[0] = 1
		for d := 0; d+1 < k; d++ {
			kn.extend(tr, tr.pre, tr.pre, d)
		}
	}
}

// setMover makes color mover fold at probability q from now on and builds
// the preMover tables past it.
func (kn *Kernel) setMover(mover int, q float64) {
	kn.mover, kn.qMover = mover, q
	kn.weights(kn.wMover, q)
	k := len(kn.q)
	if mover+1 >= k {
		return
	}
	for i := range kn.tiers {
		tr := &kn.tiers[i]
		kn.extend(tr, tr.preMover, tr.pre, mover)
		for d := mover + 1; d+1 < k; d++ {
			kn.extend(tr, tr.preMover, tr.preMover, d)
		}
	}
}

// extend writes table d+1 of dst: table d of src folded with color d, or
// copied when color d carries no mass (a DP skips it).
func (kn *Kernel) extend(tr *tier, dst, src []float64, d int) {
	from := src[d*tr.size : (d+1)*tr.size]
	to := dst[(d+1)*tr.size : (d+2)*tr.size]
	qd, w := kn.law(d)
	if qd <= 0 {
		copy(to, from)
		return
	}
	fold(to, from, w, tr, true)
}

// adoptProb returns P(adopted color = d) when d's own neighbor probability
// is qd and every other color folds at its law.
func (kn *Kernel) adoptProb(d int, qd float64) float64 {
	if qd <= 0 {
		return 0
	}
	// last is the final color the DP folds.
	last := len(kn.q) - 1
	for ; last > d; last-- {
		if qe, _ := kn.law(last); qe > 0 {
			break
		}
	}
	j := kn.J
	var p float64
	qdPow := 1.0 // q_d^m, maintained incrementally
	for i := range kn.tiers {
		tr := &kn.tiers[i]
		qdPow *= qd
		g := tr.pre[d*tr.size : (d+1)*tr.size]
		if kn.mover >= 0 && d > kn.mover {
			g = tr.preMover[d*tr.size : (d+1)*tr.size]
		}
		buf, other := kn.g[:tr.size], kn.gNext[:tr.size]
		for e := d + 1; e <= last; e++ {
			qe, w := kn.law(e)
			if qe <= 0 {
				continue
			}
			fold(buf, g, w, tr, e < last)
			g, buf, other = buf, other, buf
		}
		base := kn.fact[j] / kn.fact[tr.m] * qdPow
		for t := 0; t < tr.width; t++ {
			p += base * g[tr.rest*tr.width+t] / float64(t+1)
		}
	}
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Flows implements occupancy.FlowKernel: in the fraction limit the
// neighbor law seen by every node is x itself (self-exclusion is an O(1/n)
// correction), so the adoption probability of color d is the same DP
// evaluated at q = x regardless of the mover's color, and
// F_cd = x_c · P(adopt = d). One DP per destination color, shared across
// all sources. Flows replaces any state EffectiveProb prepared.
func (kn *Kernel) Flows(x, out []float64) {
	k := len(x)
	kn.init(k)
	copy(kn.q, x)
	kn.setLaw()
	kn.prefixes()
	for d := 0; d < k; d++ {
		p := kn.adoptProb(d, x[d])
		for c := 0; c < k; c++ {
			if c == d {
				out[c*k+d] = 0
				continue
			}
			out[c*k+d] = x[c] * p
		}
	}
}

// EffectiveProb implements occupancy.Kernel: one prefix pass and one DP
// per present color, kept as the leave weights n_c·P(adopt ≠ c) (and, with
// self-sampling, as the destination weights, since every node then sees
// the same law).
func (kn *Kernel) EffectiveProb(counts []int64, n int64, withSelf bool) float64 {
	kn.init(len(counts))
	kn.withSelf = withSelf
	nf := float64(n)
	for d, v := range counts {
		if withSelf {
			kn.q[d] = float64(v) / nf
			kn.qOwn[d] = kn.q[d]
			continue
		}
		nd := float64(v)
		kn.q[d] = nd / (nf - 1)
		nd--
		kn.qOwn[d] = nd / (nf - 1)
	}
	kn.setLaw()
	kn.prefixes()
	var sum float64
	for c, v := range counts {
		kn.leave[c] = 0
		kn.adopt[c] = 0
		if v == 0 {
			continue
		}
		kn.adopt[c] = kn.adoptProb(c, kn.qOwn[c])
		if w := 1 - kn.adopt[c]; w > 0 {
			kn.leave[c] = float64(v) * w
			sum += kn.leave[c]
		}
	}
	kn.total = sum
	return sum / nf
}

// SampleTransition implements occupancy.Kernel: own color c with
// probability proportional to n_c · P(adopt ≠ c), then the adopted color
// d ≠ c with probability proportional to P(adopt = d) under c's neighbor
// law. Without self-sampling that law differs from the fold law only at c,
// so the destination DPs reuse the prefix tables below c and rebuild the
// rest once; the prepared state is left intact, so draws can repeat.
func (kn *Kernel) SampleTransition(r *rng.RNG) (from, to int) {
	from = occupancy.WeightedPick(r, kn.total, kn.leave)
	dest := kn.adopt
	if !kn.withSelf {
		dest = kn.dest
		kn.setMover(from, kn.qOwn[from])
		for d, qd := range kn.q {
			if d != from {
				dest[d] = kn.adoptProb(d, qd)
			}
		}
	}
	var dTotal float64
	for d := range dest {
		if d != from {
			dTotal += dest[d]
		}
	}
	to = occupancy.WeightedPickExcept(r, dTotal, dest, from)
	return from, to
}
