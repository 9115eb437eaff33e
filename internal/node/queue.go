package node

// eventKind says what a fabric event does when it fires.
type eventKind uint8

const (
	// evWake ends a node's Sleep.
	evWake eventKind = iota
	// evRequest delivers a pull request to peer's handler.
	evRequest
	// evReply delivers peer's answer back into the requester's slot.
	evReply
	// evTimeout ends a pull whose replies did not all land in time.
	evTimeout
)

// event is one scheduled occurrence on the virtual timeline. It is plain
// data: the fabric's fire switch interprets it, so scheduling allocates
// nothing.
type event struct {
	at  float64
	seq int64 // tiebreaker: schedule order

	kind    eventKind
	decided bool   // evReply: the responder's decided flag
	node    int32  // the sleeper or the requester
	peer    int32  // evRequest: the responder
	slot    int32  // evRequest, evReply: index into the requester's replies
	opinion int32  // evReply: the responder's opinion
	gen     uint32 // evRequest, evReply, evTimeout: the requester's pull generation
}

// before is the queue order: earliest time first, ties by schedule order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events in (at, seq) order. It is
// indexed for timeouts only: every node has at most one pending timeout,
// and timeoutAt[node] tracks its slot so a pull whose last reply landed
// can remove it instead of leaving a stale no-op in the heap. Keys are
// unique (seq), so the pop order of the remaining events does not depend
// on which events were removed.
type eventQueue struct {
	ev        []event
	timeoutAt []int32 // per node: heap index of its pending timeout, -1 if none
}

func newEventQueue(nodes, capacity int) eventQueue {
	q := eventQueue{ev: make([]event, 0, capacity), timeoutAt: make([]int32, nodes)}
	for i := range q.timeoutAt {
		q.timeoutAt[i] = -1
	}
	return q
}

func (q *eventQueue) len() int { return len(q.ev) }

// place stores e at heap index i, keeping the timeout index current.
func (q *eventQueue) place(i int, e event) {
	q.ev[i] = e
	if e.kind == evTimeout {
		q.timeoutAt[e.node] = int32(i)
	}
}

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	q.up(len(q.ev)-1, e)
}

// pop removes and returns the earliest event. The queue must be non-empty.
func (q *eventQueue) pop() event {
	top := q.ev[0]
	if top.kind == evTimeout {
		q.timeoutAt[top.node] = -1
	}
	q.removeAt(0)
	return top
}

// cancelTimeout removes node's pending timeout, if any.
func (q *eventQueue) cancelTimeout(node int32) {
	i := q.timeoutAt[node]
	if i < 0 {
		return
	}
	q.timeoutAt[node] = -1
	q.removeAt(int(i))
}

// removeAt deletes the event at heap index i by moving the last event into
// its place and restoring the heap order around it.
func (q *eventQueue) removeAt(i int) {
	last := len(q.ev) - 1
	e := q.ev[last]
	q.ev = q.ev[:last]
	if i == last {
		return
	}
	if i > 0 && e.before(&q.ev[(i-1)/2]) {
		q.up(i, e)
	} else {
		q.down(i, e)
	}
}

// up moves the hole at i toward the root until e fits, then stores e.
func (q *eventQueue) up(i int, e event) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q.ev[p]) {
			break
		}
		q.place(i, q.ev[p])
		i = p
	}
	q.place(i, e)
}

// down moves the hole at i toward the leaves until e fits, then stores e.
func (q *eventQueue) down(i int, e event) {
	n := len(q.ev)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.ev[c+1].before(&q.ev[c]) {
			c++
		}
		if !q.ev[c].before(&e) {
			break
		}
		q.place(i, q.ev[c])
		i = c
	}
	q.place(i, e)
}
