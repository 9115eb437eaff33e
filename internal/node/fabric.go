package node

import (
	"errors"
	"fmt"
	"sync"

	"plurality/internal/population"
	"plurality/internal/rng"
)

// Faults configures message-level fault injection on the in-process
// fabric. All draws come from the fabric's own seeded stream, so a faulty
// cluster is exactly as deterministic as a clean one.
type Faults struct {
	// Latency is the mean of the exponential per-message delay, in
	// parallel-time units, applied independently to each request and each
	// reply. Zero means instant delivery (the oracle-equivalent setting).
	Latency float64
	// Drop is the probability a message (request or reply) is lost.
	Drop float64
	// Reorder is the probability a message draws a second independent
	// exponential delay on top of Latency, shuffling it behind later
	// traffic.
	Reorder float64
}

// errStall reports a fabric where every live node blocked with no pending
// event — a runtime bug by construction (every Sleep and every Pull
// schedules a wake), surfaced loudly instead of deadlocking.
var errStall = errors.New("node: fabric stalled with no pending events")

// Fabric is the in-process transport: a conservative virtual-time event
// coordinator. Node goroutines only ever block inside Sleep or Pull; the
// coordinator waits until every live node is blocked (running == 0), pops
// the earliest pending event — ties broken by schedule order — advances
// the shared clock, and fires it. Exactly one goroutine is ever runnable,
// so execution is globally sequential and bit-deterministic for a fixed
// seed, while the nodes still communicate exclusively through messages.
//
// The steady state allocates nothing: events are plain values in a typed
// heap, and each node owns one reusable waiter (its endpoint) with a wake
// channel and reply slots, created at Bind.
type Fabric struct {
	n      int
	faults Faults
	frng   *rng.RNG

	mu      sync.Mutex
	cond    *sync.Cond // coordinator waits here for running == 0
	events  eventQueue
	seq     int64
	now     float64
	running int // node goroutines not blocked in Sleep/Pull
	live    int // node goroutines that have not called Done
	closed  bool
	started bool
	err     error
	done    chan struct{} // coordinator exited

	nodes []*fabNode // by id; nil until bound
	bound int
	stats Stats
}

// NewFabric creates an in-process fabric for n nodes. The fault stream is
// seeded independently of every node stream, so enabling faults does not
// shift the nodes' own random draws.
func NewFabric(n int, seed uint64, f Faults) *Fabric {
	fb := &Fabric{
		n:      n,
		faults: f,
		frng:   rng.At(seed, faultStream),
		nodes:  make([]*fabNode, n),
		done:   make(chan struct{}),
	}
	fb.cond = sync.NewCond(&fb.mu)
	return fb
}

// Bind implements Network.
func (f *Fabric) Bind(id int, h Handler) (Conn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return nil, errors.New("node: Bind after Start")
	}
	if id < 0 || id >= f.n {
		return nil, fmt.Errorf("node: Bind id %d out of range [0,%d)", id, f.n)
	}
	if f.nodes[id] != nil {
		return nil, fmt.Errorf("node: node %d already bound", id)
	}
	f.nodes[id] = &fabNode{f: f, id: int32(id), h: h, wake: make(chan struct{}, 1)}
	f.bound++
	return f.nodes[id], nil
}

// Clock implements Network. The fabric's clocks are all views of the one
// shared virtual timeline; each is also its node's waiter, so it is valid
// only after Bind(id).
func (f *Fabric) Clock(id int) Clock {
	return f.nodes[id]
}

// Start implements Network: it arms the running/live counters to the
// bound-node count and launches the coordinator. The cluster must start
// exactly one goroutine per bound node after Start; each counts as running
// until its first Sleep.
func (f *Fabric) Start() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return errors.New("node: fabric started twice")
	}
	f.started = true
	f.running = f.bound
	f.live = f.bound
	// Room for each node's wake, or its pull's requests and timeout; the
	// heap grows past it only under delays, drops or large samples.
	f.events = newEventQueue(f.n, 4*f.bound)
	go f.dispatch()
	return nil
}

// Close implements Network: it marks the fabric closed, releases every
// blocked node (their Sleep/Pull calls return with ok=false / missing
// replies), and waits for the coordinator to exit. Idempotent.
func (f *Fabric) Close() error {
	f.mu.Lock()
	if !f.started {
		f.closed = true
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.cond.Signal()
	f.mu.Unlock()
	<-f.done
	return nil
}

// Stats implements Network.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Err reports a coordinator-detected runtime bug (stall), nil otherwise.
func (f *Fabric) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// schedule enqueues ev d time units from now, stamping its time and its
// place in schedule order. Caller holds f.mu.
func (f *Fabric) schedule(d float64, ev event) {
	ev.at = f.now + d
	ev.seq = f.seq
	f.seq++
	f.events.push(ev)
}

// dispatch is the coordinator: pop-advance-fire, one event at a time,
// only while every live node is blocked.
func (f *Fabric) dispatch() {
	f.mu.Lock()
	for {
		for f.running > 0 && !f.closed {
			f.cond.Wait()
		}
		if f.closed {
			f.drain()
			break
		}
		if f.live == 0 {
			break
		}
		if f.events.len() == 0 {
			// Unreachable by construction; fail loudly, not silently.
			f.err = errStall
			f.closed = true
			f.drain()
			break
		}
		ev := f.events.pop()
		f.now = ev.at
		f.fire(&ev)
	}
	f.mu.Unlock()
	close(f.done)
}

// drain fires every remaining event under closed state so that blocked
// nodes are released: wakes and timeouts run their release path,
// deliveries no-op. Caller holds f.mu.
func (f *Fabric) drain() {
	for f.events.len() > 0 {
		ev := f.events.pop()
		f.fire(&ev)
	}
}

// fire runs one event. Caller holds f.mu.
func (f *Fabric) fire(ev *event) {
	w := f.nodes[ev.node]
	switch ev.kind {
	case evWake:
		// The sleeper becomes the one running goroutine.
		f.release(w)
	case evRequest:
		// Request delivery. The handler is the responder's always-responsive
		// network layer: it reads atomically published state, so invoking
		// it here never wakes or blocks the responder's protocol goroutine.
		// It runs whether or not the requester's pull already ended, so the
		// fault stream's draws depend only on the messages sent.
		if f.closed {
			return
		}
		resp := f.nodes[ev.peer].h(Message{Kind: KindPull, To: uint32(ev.peer), From: uint32(ev.node)})
		if f.drop() {
			f.stats.Dropped++
			return
		}
		f.schedule(f.delay(), event{kind: evReply, node: ev.node, slot: ev.slot, gen: ev.gen,
			opinion: resp.Opinion, decided: resp.Decided})
	case evReply:
		// A reply to an ended pull (timed out, or an earlier generation)
		// is a no-op.
		if f.closed || w.done || ev.gen != w.gen {
			return
		}
		f.stats.Responses++
		w.replies[ev.slot] = PullReply{Opinion: population.Color(ev.opinion), Decided: ev.decided, OK: true}
		w.remaining--
		if w.remaining == 0 {
			w.done = true
			f.events.cancelTimeout(ev.node)
			f.release(w)
		}
	case evTimeout:
		if w.done || ev.gen != w.gen {
			return
		}
		w.done = true
		f.release(w)
	}
}

// release hands the run to w's blocked node goroutine. Caller holds f.mu.
// The send never blocks: each block is released exactly once (one wake per
// Sleep, the done latch per Pull), and wake has room for that one token.
func (f *Fabric) release(w *fabNode) {
	f.running++
	w.wake <- struct{}{}
}

// delay draws one message delay from the fault stream. Caller holds f.mu.
func (f *Fabric) delay() float64 {
	if f.faults.Latency <= 0 && f.faults.Reorder <= 0 {
		return 0
	}
	mean := f.faults.Latency
	if mean <= 0 {
		mean = reorderBaseDelay
	}
	var d float64
	if f.faults.Latency > 0 {
		d = f.frng.ExpFloat64() * f.faults.Latency
	}
	if f.faults.Reorder > 0 && f.frng.Bernoulli(f.faults.Reorder) {
		d += f.frng.ExpFloat64() * mean
	}
	return d
}

// reorderBaseDelay is the mean of the extra reorder delay when no base
// latency is configured (pure-reorder fault injection still needs a
// timescale to shuffle messages across).
const reorderBaseDelay = 0.5

// drop draws one drop decision from the fault stream. Caller holds f.mu.
func (f *Fabric) drop() bool {
	return f.faults.Drop > 0 && f.frng.Bernoulli(f.faults.Drop)
}

// fabNode is node id's endpoint on the fabric, serving as both its Conn
// and its Clock. It is the node's one reusable waiter: the node blocks on
// wake in Sleep or Pull (never both at once), and the fields below wake
// describe the pull in flight. Every field but f, id, h and wake is
// guarded by f.mu.
type fabNode struct {
	f    *Fabric
	id   int32
	h    Handler
	wake chan struct{} // capacity 1: one release per block

	replies   []PullReply // the current pull's slots, reused across pulls
	remaining int         // replies still missing
	done      bool        // the current pull ended; later events for it no-op
	gen       uint32      // pull generation, stamped on the pull's events
}

// block parks the caller until the coordinator releases it. Caller holds
// f.mu, which block releases.
func (w *fabNode) block() {
	f := w.f
	f.running--
	f.cond.Signal()
	f.mu.Unlock()
	<-w.wake
}

// Sleep implements Clock: it schedules a wake event d units ahead, parks
// the caller, and lets the coordinator run.
func (w *fabNode) Sleep(d float64) (float64, bool) {
	f := w.f
	f.mu.Lock()
	if f.closed {
		now := f.now
		f.mu.Unlock()
		return now, false
	}
	f.schedule(d, event{kind: evWake, node: w.id})
	w.block()
	f.mu.Lock()
	now := f.now
	ok := !f.closed
	f.mu.Unlock()
	return now, ok
}

// Done implements Clock: the node goroutine is finished for good.
func (w *fabNode) Done() {
	f := w.f
	f.mu.Lock()
	f.running--
	f.live--
	f.cond.Signal()
	f.mu.Unlock()
}

// Pull implements Conn. Each request is delivered to the responder's
// handler after its (possibly zero) latency draw; the reply travels back
// with an independent draw. The requester wakes when all replies landed or
// at the timeout. A timeout event is always scheduled: it wakes the
// requester when messages were dropped, and it is the release valve during
// close-drain. When the last reply lands first, the timeout is removed
// from the queue; it would have fired as a no-op.
//
// The returned slice is the endpoint's reply buffer: it is valid until the
// next Pull on this endpoint.
func (w *fabNode) Pull(peers []int, timeout float64) []PullReply {
	f := w.f
	f.mu.Lock()
	if cap(w.replies) < len(peers) {
		w.replies = make([]PullReply, len(peers))
	}
	w.replies = w.replies[:len(peers)]
	clear(w.replies)
	if f.closed {
		f.mu.Unlock()
		return w.replies
	}
	w.gen++
	w.remaining = len(peers)
	w.done = false
	for i, p := range peers {
		f.stats.Requests++
		if f.drop() {
			// Lost request: the slot stays !OK and the requester waits out
			// the timeout — it has no way to know the message vanished.
			f.stats.Dropped++
			continue
		}
		f.schedule(f.delay(), event{kind: evRequest, node: w.id, peer: int32(p), slot: int32(i), gen: w.gen})
	}
	f.schedule(timeout, event{kind: evTimeout, node: w.id, gen: w.gen})
	w.block()
	return w.replies
}
