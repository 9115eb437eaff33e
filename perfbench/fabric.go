package main

import (
	"context"
	"errors"
	"fmt"

	"plurality"
)

// fabricKind is one cluster shape of the node-fabric mix.
type fabricKind struct {
	name     string
	protocol string
	counts   []int64
	faults   *plurality.NetFaults // nil: NewChanTransport
}

var fabricKinds = []fabricKind{
	{name: "2c", protocol: "two-choices", counts: must(plurality.Biased(512, 2, 0.5))},
	{name: "usd", protocol: "usd", counts: must(plurality.Biased(512, 2, 0.5))},
	// The lossy runs are about twice as long as the others, so the tail
	// falls inside their band rather than on a stray slow op.
	{name: "2c-lossy", protocol: "two-choices", counts: must(plurality.Biased(1024, 2, 0.5)),
		faults: &plurality.NetFaults{Latency: 0.05, Drop: 0.01}},
}

// fabricPool is the number of clusters compiled in set-up.
const fabricPool = 240

type nodeFabric struct {
	clusters []*plurality.Cluster
	reports  []plurality.Report // filled by op, read by layers
}

func (f *nodeFabric) cluster(i int, seed uint64) (*plurality.Cluster, error) {
	k := fabricKinds[i%len(fabricKinds)]
	tr := plurality.NewChanTransport()
	if k.faults != nil {
		tr = plurality.NewLossyChanTransport(*k.faults)
	}
	return plurality.NewCluster(plurality.NodeConfig{Protocol: k.protocol, Counts: k.counts, Seed: seed, Transport: tr})
}

func setupNodeFabric(seed uint64) (instance, error) {
	f := &nodeFabric{clusters: make([]*plurality.Cluster, fabricPool), reports: make([]plurality.Report, fabricPool)}
	for i := range f.clusters {
		c, err := f.cluster(i, opSeed(seed, i))
		if err != nil {
			return nil, err
		}
		f.clusters[i] = c
	}
	for i := range fabricKinds {
		c, err := f.cluster(i, warmupSeed)
		if err != nil {
			return nil, err
		}
		if _, err := checkReport(c.Run(context.Background())); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", fabricKinds[i].name, err)
		}
	}
	return f, nil
}

func (f *nodeFabric) kind(i int) string { return fabricKinds[i%len(fabricKinds)].name }

func (f *nodeFabric) fingerprintOps() int { return 4 * len(fabricKinds) }

func (f *nodeFabric) close() {}

// op runs one cluster to consensus. Ops past the pool rerun pool clusters
// (same seeds, same work).
func (f *nodeFabric) op(ctx context.Context, i int, tr *tracer, parent int) (work, error) {
	var rep plurality.Report
	var err error
	tr.timed("plurality.Cluster.Run", parent, i, func() { rep, err = f.clusters[i%fabricPool].Run(ctx) })
	if rep.Messages == 0 && err == nil {
		err = errors.New("cluster exchanged no messages")
	}
	f.reports[i%fabricPool] = rep
	return checkReport(rep, err)
}

// tickOverheadOps is how many cluster runs the simulator probe replays.
const tickOverheadOps = 6

func (f *nodeFabric) layers(ctx context.Context, tr *tracer, seed uint64, lr loopResult, m map[string]float64) error {
	var runNs, msgs, halt float64
	runs := tr.durations("plurality.Cluster.Run")
	if len(runs) == 0 || len(lr.recs) == 0 {
		return errors.New("no traced cluster runs")
	}
	for _, d := range runs {
		runNs += float64(d.Nanoseconds())
	}
	for _, rec := range lr.recs {
		msgs += float64(rec.w.Messages)
		rep := f.reports[rec.idx%fabricPool]
		halt += rep.Time - rep.ConsensusTime
	}
	m["node.ns_per_message"] = runNs / msgs
	m["node.messages_per_op"] = msgs / float64(len(lr.recs))
	m["node.halt_tail"] = halt / float64(len(lr.recs))

	// Tick overhead: the simulator's per-node engine on the same input and
	// seed; the node runtime pays for its termination gadget and timeouts.
	root := tr.begin("probe/tick_overhead", -1, -1)
	defer tr.end(root)
	var nodeTicks, simTicks float64
	for _, rec := range lr.recs[:min(tickOverheadOps, len(lr.recs))] {
		k := fabricKinds[rec.idx%len(fabricKinds)]
		if k.faults != nil {
			continue
		}
		job, err := plurality.NewJob(k.protocol, k.counts, plurality.WithSeed(opSeed(seed, rec.idx%fabricPool)),
			plurality.WithModel(plurality.Poisson), plurality.WithEngine(plurality.EnginePerNode))
		if err != nil {
			return err
		}
		var rep plurality.Report
		tr.timed("plurality.Job.Run", root, rec.idx, func() { rep, err = job.Run(ctx) })
		w, err := checkReport(rep, err)
		if err != nil {
			return fmt.Errorf("simulator replay of op %d: %w", rec.idx, err)
		}
		nodeTicks += float64(rec.w.Ticks)
		simTicks += float64(w.Ticks)
	}
	if simTicks == 0 {
		return errors.New("no fault-free cluster run to compare")
	}
	m["node.tick_overhead"] = nodeTicks / simTicks
	return nil
}
