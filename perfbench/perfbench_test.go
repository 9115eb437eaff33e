package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// runLast runs the command in-process and returns its stdout and the
// decoded last line.
func runLast(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return stdout.String(), res
}

func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.Name, v, d.Unit)
		}
	}
}

// TestSmokeEveryWorkload runs each workload briefly and checks that every
// end-to-end metric is printed with its unit, with no failed op.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, res := runLast(t, "--workload", w.name, "--seed", "3", "--seconds", "0.3", "--trace", "0")
			checkMetrics(t, res, endToEnd)
			for _, want := range []string{"metric error_rate", "tail op_tail_ms is p", "fingerprint " + w.name} {
				if !strings.Contains(out, want) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", name, v.Value)
				}
			}
		})
	}
}

// TestTracedRunReportsEveryLayer checks that a traced run prints every
// per-layer metric with its unit and writes its spans.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("a traced run probes every layer (about 30 s)")
	}
	dir := t.TempDir()
	out, res := runLast(t, "--workload", "serve-mixed", "--seed", "3", "--seconds", "1", "--trace", "1", "--out", dir)
	checkMetrics(t, res, perLayer)
	if !strings.Contains(out, "spans written to "+dir) {
		t.Errorf("no span dump reported:\n%s", out)
	}
	b, err := os.ReadFile(dir + "/trace-serve-mixed-seed3.json")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Summary []layerTime
		Spans   []span
	}
	if err := json.Unmarshal(b, &dump); err != nil || len(dump.Spans) == 0 || len(dump.Summary) == 0 {
		t.Fatalf("span dump: %d spans, err %v", len(dump.Spans), err)
	}
}

// TestFingerprintIsDeterministic runs the same op prefix twice per seed:
// the summed work must match, and differ across seeds.
func TestFingerprintIsDeterministic(t *testing.T) {
	for _, name := range []string{"collapsed-mix", "node-fabric"} {
		w, _ := lookupWorkload(name)
		fp := func(seed uint64) work {
			inst, err := w.setup(seed)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			ops := inst.fingerprintOps()
			lr := closedLoop(context.Background(), w.drivers, time.Hour, ops, inst, nil)
			got, n := lr.fingerprint(ops)
			if n != ops || lr.failures() != 0 {
				t.Fatalf("%s: %d of %d ops completed, %d failed", name, n, ops, lr.failures())
			}
			return got
		}
		a, b, c := fp(5), fp(5), fp(6)
		if a != b {
			t.Errorf("%s: seed 5 fingerprints differ: %+v vs %+v", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 did identical work %+v", name, a)
		}
	}
}

// TestRegistryMatchesBenchmarkJSON keeps BENCHMARK.json in step with the
// workloads and metrics this program reports.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, want %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := bj.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, e, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, want %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if e := bj.PerLayer[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, e, d)
		}
	}
}

// TestReadmeNamesEveryMetric keeps the README's metric table complete:
// each per-layer metric is listed with what it should move.
func TestReadmeNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if row := "| `" + d.Name + "` | " + d.Unit + " | " + d.Moves + " |"; !bytes.Contains(b, []byte(row)) {
			t.Errorf("README.md lacks the row %s", row)
		}
	}
}

func TestLatencyStats(t *testing.T) {
	var lat []time.Duration
	for i := 1; i <= 100; i++ {
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	p50, tail, pct, n := latencyStats(lat)
	if p50 != 50500*time.Microsecond || tail != 90*time.Millisecond || pct != 90 || n != 100 {
		t.Errorf("got p50 %v tail %v at p%v of %d", p50, tail, pct, n)
	}
	if _, tail, _, _ := latencyStats(lat[:5]); tail != time.Millisecond {
		t.Errorf("with fewer than 11 ops the tail is the minimum, got %v", tail)
	}
}

func TestInterleave(t *testing.T) {
	got := interleave([]input{{weight: 1}, {weight: 3}})
	if want := []int{1, 0, 1, 1}; !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "call", Start: 10, End: 70, Parent: 0},
		{Name: "call", Start: 70, End: 90, Parent: 0},
	}}
	for _, lt := range tr.summary() {
		switch lt.Name {
		case "op":
			if lt.TotalMs != 100e-6 || lt.SelfMs != 20e-6 {
				t.Errorf("op: %+v", lt)
			}
		case "call":
			if lt.Count != 2 || lt.SelfMs != 80e-6 {
				t.Errorf("call: %+v", lt)
			}
		}
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer recorded span %d", id)
	}
}
