// Package voter implements the classic Voter dynamic: on activation a node
// samples one node uniformly at random and adopts its color unconditionally.
//
// Voter reaches consensus on the clique in Θ(n) parallel time in
// expectation but offers no plurality guarantee — the winner is each color
// with probability proportional to its initial support. It serves as the
// naive baseline the Two-Choices family is measured against.
package voter

import (
	"plurality/internal/occupancy"
	"plurality/internal/population"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/rng"
)

// Rule is the Voter update rule.
type Rule struct{}

var (
	_ dynamics.Rule      = Rule{}
	_ occupancy.Kerneled = Rule{}
)

// OccupancyKernel implements occupancy.Kerneled: the exact count-level
// transition law that lets the count-collapsed engine leap over no-op
// activations on the clique.
func (Rule) OccupancyKernel() occupancy.Kernel { return &occupancy.VoterKernel{} }

// Name implements dynamics.Rule.
func (Rule) Name() string { return "voter" }

// SampleCount implements dynamics.Rule.
func (Rule) SampleCount() int { return 1 }

// Next implements dynamics.Rule: adopt the sampled color.
func (Rule) Next(_ *rng.RNG, _ population.Color, sampled []population.Color) population.Color {
	return sampled[0]
}
