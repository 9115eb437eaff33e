package plurality

import (
	"errors"
	"testing"
)

// TestWithEdgeLatency: per-edge latencies thread from the public option
// into both the core protocol and the sampling dynamics, slowing but not
// breaking convergence.
func TestWithEdgeLatency(t *testing.T) {
	const n = 1000
	counts, err := Biased(n, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(opts ...Option) float64 {
		pop, err := NewPopulation(counts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runCore(t, pop, append([]Option{WithSeed(3), WithModel(Poisson)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return res.ConsensusTime
	}
	instant := runWith()
	exp := runWith(WithEdgeLatency(ExpEdgeLatency(2)))
	uni := runWith(WithEdgeLatency(UniformEdgeLatency(1, 3)))
	if exp <= instant || uni <= instant {
		t.Fatalf("latency did not slow core: instant %v, exp %v, uniform %v", instant, exp, uni)
	}

	pop, err := NewPopulation(counts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOn(t, "two-choices", pop, WithSeed(3), WithEdgeLatency(ExpEdgeLatency(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("two-choices under latency did not converge: %+v", res)
	}
}

// TestWithChurn: the public churn option injects counted node
// replacements into both runner families.
func TestWithChurn(t *testing.T) {
	const n = 1000
	counts, err := Biased(n, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := NewPopulation(counts)
	if err != nil {
		t.Fatal(err)
	}
	core, err := runCore(t, pop, WithSeed(5), WithChurn(0.2/n))
	if err != nil {
		t.Fatal(err)
	}
	if !core.Done || core.Churns == 0 {
		t.Fatalf("core churn run: %+v", core)
	}

	pop2, err := NewPopulation(counts)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := runOn(t, "3-majority", pop2, WithSeed(5), WithChurn(0.2/n))
	if err != nil {
		t.Fatal(err)
	}
	if !dyn.Converged || dyn.Churns == 0 {
		t.Fatalf("three-majority churn run: %+v", dyn)
	}
}

// TestWithCrashesRejectsSparseTopology: the public surface enforces the
// crash/topology contract at NewJob.
func TestWithCrashesRejectsSparseTopology(t *testing.T) {
	counts, err := Biased(100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := CycleGraph(100)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewJob("core", counts, WithGraph(g), WithCrashes(0.1))
	if err == nil {
		t.Fatal("crash injection on a cycle should be rejected")
	}
	if errors.Is(err, ErrNoConsensus) {
		t.Fatalf("want a validation error, got a protocol failure: %v", err)
	}
}
