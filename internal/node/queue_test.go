package node

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestEventQueueOrderWithCancels interleaves pushes, pops and timeout
// cancellations at random and checks every pop against a sorted reference:
// the earliest (at, seq) among the events neither popped nor canceled.
func TestEventQueueOrderWithCancels(t *testing.T) {
	const nodes = 16
	r := rand.New(rand.NewPCG(1, 2))
	q := newEventQueue(nodes, 0)
	var ref []event // the live events, unordered
	var seq int64
	for step := 0; step < 20000; step++ {
		switch op := r.IntN(10); {
		case op < 5:
			// Coarse times make (at, seq) ties common.
			e := event{at: float64(r.IntN(50)), seq: seq, kind: evRequest, node: int32(r.IntN(nodes))}
			seq++
			if r.IntN(3) == 0 && q.timeoutAt[e.node] < 0 {
				e.kind = evTimeout
			}
			q.push(e)
			ref = append(ref, e)
		case op < 8 && len(ref) > 0:
			got := q.pop()
			i := 0
			for j := range ref {
				if ref[j].before(&ref[i]) {
					i = j
				}
			}
			if got != ref[i] {
				t.Fatalf("step %d: popped %+v, want %+v", step, got, ref[i])
			}
			ref = slices.Delete(ref, i, i+1)
		default:
			node := int32(r.IntN(nodes))
			q.cancelTimeout(node)
			ref = slices.DeleteFunc(ref, func(e event) bool { return e.kind == evTimeout && e.node == node })
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: queue holds %d events, want %d", step, q.len(), len(ref))
		}
		for node, i := range q.timeoutAt {
			if i >= 0 && (q.ev[i].kind != evTimeout || q.ev[i].node != int32(node)) {
				t.Fatalf("step %d: timeout index of node %d points at %+v", step, node, q.ev[i])
			}
		}
	}
}
