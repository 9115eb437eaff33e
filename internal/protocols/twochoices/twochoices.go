// Package twochoices implements the Two-Choices plurality dynamic of
// Cooper, Elsässer & Radzik (ICALP '14), the protocol analyzed by
// Theorem 1.1 of the paper: on activation a node samples two nodes
// uniformly at random with replacement and adopts their color if — and only
// if — the two sampled colors coincide.
//
// On the complete graph with initial bias c_1 − c_2 ≥ z·sqrt(n·ln n) the
// dynamic converges to the plurality color within O(n/c_1 · log n)
// synchronous rounds w.h.p., but needs Ω(n/c_1) rounds on the equal-runner-up
// instance — the Ω(k) barrier the paper's OneExtraBit and asynchronous
// protocols are built to beat.
package twochoices

import (
	"plurality/internal/occupancy"
	"plurality/internal/population"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/rng"
)

// Rule is the Two-Choices update rule.
type Rule struct{}

var (
	_ dynamics.Rule      = Rule{}
	_ occupancy.Kerneled = Rule{}
)

// OccupancyKernel implements occupancy.Kerneled: the exact count-level
// transition law that lets the count-collapsed engine leap over no-op
// activations on the clique.
func (Rule) OccupancyKernel() occupancy.Kernel { return &occupancy.TwoChoicesKernel{} }

// Name implements dynamics.Rule.
func (Rule) Name() string { return "two-choices" }

// SampleCount implements dynamics.Rule.
func (Rule) SampleCount() int { return 2 }

// Next implements dynamics.Rule: adopt the sampled color iff both samples
// agree.
func (Rule) Next(_ *rng.RNG, own population.Color, sampled []population.Color) population.Color {
	if sampled[0] == sampled[1] {
		return sampled[0]
	}
	return own
}
