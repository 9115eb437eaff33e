package exp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestValidateRunDifferential is the differential check between Validate and
// RunScenario: over small scenarios spanning every protocol, engine,
// topology, model and runtime, with churn, crashes, delays, latencies and
// adversaries each on or off, Validate never panics and every scenario it
// accepts runs without error. A run that exhausts its short time budget is
// Done == false, not an error. (The node-tcp runtime is covered by
// TestRunScenarioNodeTCP.)
func TestValidateRunDifferential(t *testing.T) {
	protocols := []string{"core", "two-choices", "voter", "3-majority", "usd", "j-majority:3"}
	engines := []string{"", "per-node", "occupancy", "leap"}
	topologies := []struct {
		name  string
		param float64
	}{{"complete", 0}, {"cycle", 0}, {"annealed", 4}, {"random-regular", 4}}
	models := []string{"sequential", "poisson", "heap-poisson"}
	runtimes := []string{"sim", "node"}
	adversaries := []string{"corrupt", "minority-bias", "delay-set", "late:1", "byzantine"}

	var accepted, rejected, node int
	// Each injection is on with probability 1/4, so that scenarios with
	// several of them on, which most paths reject, do not crowd out the
	// accepted ones.
	on := func(v uint8) bool { return v%4 == 0 }
	check := func(p, e, tp, m, rt, k, a, churn, crash, delay, latency, adv uint8, seed uint64) (ok bool) {
		top := topologies[int(tp)%len(topologies)]
		sc := Scenario{
			Protocol: protocols[int(p)%len(protocols)],
			N:        64, K: 2 + int(k)%2,
			Bias: "biased", BiasParam: 1,
			Topology: top.name, TopologyParam: top.param,
			Model:   models[int(m)%len(models)],
			Engine:  engines[int(e)%len(engines)],
			Runtime: runtimes[int(rt)%len(runtimes)],
			MaxTime: 5,
		}
		if on(churn) {
			sc.Churn = 0.001
		}
		if on(crash) {
			sc.Crash = 0.1
		}
		if on(delay) {
			sc.DelayRate = 2
		}
		if on(latency) {
			sc.Latency = "exp:0.1"
		}
		if on(adv) {
			sc.Adversary, sc.Budget = adversaries[int(a)%len(adversaries)], "2"
		}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%+v: panic: %v", sc, r)
				ok = false
			}
		}()
		if err := sc.Validate(); err != nil {
			rejected++
			return true
		}
		accepted++
		if sc.nodeRuntime() {
			node++
		}
		if _, err := RunScenario(sc, seed); err != nil {
			t.Errorf("%+v: accepted by Validate, but RunScenario: %v", sc, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(1))}
	if testing.Short() {
		cfg.MaxCount = 1000
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	if accepted == 0 || rejected == 0 || node == 0 {
		t.Fatalf("degenerate sample: %d accepted (%d on the node runtime), %d rejected", accepted, node, rejected)
	}
	t.Logf("%d scenarios accepted and run (%d on the node runtime), %d rejected", accepted, node, rejected)
}
