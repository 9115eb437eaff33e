// Package usd implements Undecided-State Dynamics (Becchetti, Clementi,
// Natale, Pasquale & Silvestri, "Plurality Consensus in the Gossip Model"):
// on activation a node samples one node uniformly at random. An undecided
// node adopts the sampled opinion (staying undecided when the sample is
// undecided too); a decided node that samples a *different* decided opinion
// drops to the undecided state, and keeps its opinion otherwise.
//
// The undecided state is the dynamic's whole trick: a color can only
// recruit nodes that are undecided, and minority colors bleed into the
// undecided pool faster than the plurality does, so the plurality wins in
// O(md·log n) rounds w.h.p. (md the monochromatic distance of the initial
// configuration) with much weaker bias requirements than 3-Majority. It is
// the canonical baseline between Voter and Two-Choices in the
// plurality-consensus literature the paper builds on.
//
// Per node the state is the current color or population.None (undecided);
// count-collapsed runs append one hidden histogram bucket for the
// undecided holders (see occupancy.Undecided) with an exact kernel, so the
// dynamic runs at n = 10⁸ like the kerneled built-ins.
package usd

import (
	"plurality/internal/occupancy"
	"plurality/internal/population"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/rng"
)

// Rule is the per-node Undecided-State Dynamics update rule; undecided
// nodes hold population.None, and returning population.None from Next
// moves the activated node to the undecided state.
type Rule struct{}

var (
	_ dynamics.Rule       = Rule{}
	_ occupancy.Undecided = Rule{}
)

// Name implements dynamics.Rule.
func (Rule) Name() string { return "usd" }

// SampleCount implements dynamics.Rule.
func (Rule) SampleCount() int { return 1 }

// Next implements dynamics.Rule: an undecided node adopts the sampled
// opinion; a decided node keeps its opinion unless the sample is a
// different decided opinion, in which case it goes undecided.
func (Rule) Next(_ *rng.RNG, own population.Color, sampled []population.Color) population.Color {
	s := sampled[0]
	if own == population.None {
		if s != population.None {
			return s
		}
		return own
	}
	if s == population.None || s == own {
		return own
	}
	return population.None
}

// UndecidedRule implements occupancy.Undecided: the histogram-convention
// form of the rule, in which bucket k plays the undecided state.
func (Rule) UndecidedRule(k int) occupancy.Rule { return HistRule{Colors: k} }

// HistRule is the count-collapsed form of Undecided-State Dynamics: it
// operates on k+1 histogram buckets where bucket Colors (the last) holds
// the undecided nodes, because a histogram cannot store population.None.
// It is distributionally identical to Rule; the occupancy engine installs
// it via Rule's UndecidedRule hook.
type HistRule struct {
	// Colors is the number of opinion colors k; bucket index Colors is the
	// undecided state.
	Colors int
}

var (
	_ occupancy.Rule     = HistRule{}
	_ occupancy.Kerneled = HistRule{}
)

// Name implements occupancy.Rule.
func (HistRule) Name() string { return "usd" }

// SampleCount implements occupancy.Rule.
func (HistRule) SampleCount() int { return 1 }

// Next implements occupancy.Rule under the bucket convention.
func (h HistRule) Next(_ *rng.RNG, own population.Color, sampled []population.Color) population.Color {
	und := population.Color(h.Colors)
	s := sampled[0]
	if own == und {
		if s != und {
			return s
		}
		return own
	}
	if s == und || s == own {
		return own
	}
	return und
}

// OccupancyKernel implements occupancy.Kerneled: the exact count-level
// transition law that lets the count-collapsed engine leap over no-op
// activations on the clique.
func (HistRule) OccupancyKernel() occupancy.Kernel { return &Kernel{} }

// Kernel is the count-level law of Undecided-State Dynamics on k+1 buckets
// (the last one undecided). Writing D = Σ n_c over the decided colors,
// S₂ = Σ n_c² and u for the undecided count, the effective transitions are
//
//	c → undecided  with weight n_c·(D − n_c)  (decided node samples a
//	                different decided opinion), and
//	undecided → d  with weight u·n_d          (undecided node samples a
//	                decided opinion),
//
// for a total effective probability of (D² − S₂ + u·D)/(n·(n−1)) without
// self-sampling and (D² − S₂ + u·D)/n² with it — the numerators coincide
// because excluding the activated node removes only same-color (c = d)
// pairings, which are never effective.
type Kernel struct {
	d     float64   // D, the closed-form total of the destination weights
	total float64   // D² − S₂ + u·D, the closed-form total of leave
	leave []float64 // n_c·(D − n_c) per decided color, u·D for the pool
	f     []float64 // n_d, the destination weights of an undecided mover
	buf   []float64 // backs leave and f
}

// Flows implements occupancy.FlowKernel on the k+1-bucket convention: with
// decided mass D = Σ x_c and undecided fraction u, a decided color c bleeds
// into the undecided pool at F_{c,und} = x_c·(D − x_c) and the pool refills
// decided colors at F_{und,d} = u·x_d; decided-to-decided flow is zero (a
// disagreeing node always passes through the undecided state).
func (*Kernel) Flows(x, out []float64) {
	k := len(x)
	und := k - 1
	var d float64
	for _, f := range x[:und] {
		d += f
	}
	u := x[und]
	for c := 0; c < k; c++ {
		for e := 0; e < k; e++ {
			out[c*k+e] = 0
		}
	}
	for c := 0; c < und; c++ {
		out[c*k+und] = x[c] * (d - x[c])
		out[und*k+c] = u * x[c]
	}
}

// EffectiveProb implements occupancy.Kernel.
func (kn *Kernel) EffectiveProb(counts []int64, n int64, withSelf bool) float64 {
	k := len(counts)
	ws := occupancy.Grow(&kn.buf, 2*k)
	kn.leave, kn.f = ws[:k], ws[k:]
	und := k - 1
	var d, s2 float64
	for c, v := range counts[:und] {
		f := float64(v)
		kn.f[c] = f
		d += f
		s2 += f * f
	}
	u := float64(counts[und])
	for c, f := range kn.f[:und] {
		kn.leave[c] = f * (d - f)
	}
	kn.leave[und] = u * d
	kn.d, kn.total = d, d*d-s2+u*d
	nf := float64(n)
	qden := nf - 1
	if withSelf {
		qden = nf
	}
	return (d*d - s2 + u*d) / (nf * qden)
}

// SampleTransition implements occupancy.Kernel: the source is a decided
// color c with weight n_c·(D − n_c) or the undecided bucket with weight
// u·D; a decided source always sinks into the undecided bucket, an
// undecided source sinks into decided color d with weight n_d.
func (kn *Kernel) SampleTransition(r *rng.RNG) (from, to int) {
	und := len(kn.leave) - 1
	from = occupancy.WeightedPick(r, kn.total, kn.leave)
	if from != und {
		return from, und
	}
	to = occupancy.WeightedPickExcept(r, kn.d, kn.f, und)
	return from, to
}
