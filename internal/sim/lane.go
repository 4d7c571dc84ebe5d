package sim

// Lane is a monotone event queue for one fixed-latency hop: a component
// that schedules every event a constant delay ahead (or at a time that
// only grows, such as a link's next free slot) gets keys that never
// decrease, so the events can wait in a ring in arrival order. Only the
// lane's head sits in the engine's heap, as one node per non-empty lane;
// dispatching the head replaces that node's key with the next entry's and
// sifts it down once, instead of a heap pop followed by a push.
//
// A lane is a speed hint, never a semantic. Each entry consumes one
// sequence number exactly as AtFunc does, and entries fire in the engine's
// (at, seq) order. A call at the current instant, or earlier than the
// lane's last entry, takes AtFunc's path (the same-instant FIFO or the
// heap), so a call site whose times are not monotone only loses speed.
type Lane struct {
	e    *Engine
	slot int32  // permanent slot: the head's heap node points here
	ring []lent // power-of-two ring of pending entries, ascending by (at, seq)
	head int
	n    int
	tail Time // at of the last entry, valid while n > 0
}

// lent is one lane entry.
type lent struct {
	at  Time
	seq uint64
	fn  EventFunc
	arg any
}

// NewLane returns an empty lane on the engine. Components create their
// lanes once, at construction.
func (e *Engine) NewLane() *Lane {
	l := &Lane{e: e}
	l.slot = e.alloc(nil, l)
	return l
}

// At schedules fn(arg) at absolute time t, like AtFunc.
func (l *Lane) At(t Time, fn EventFunc, arg any) {
	e := l.e
	if t <= e.now || (l.n > 0 && t < l.tail) {
		e.schedule(t, fn, arg)
		return
	}
	e.seq++
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = lent{at: t, seq: e.seq, fn: fn, arg: arg}
	l.tail = t
	l.n++
	if l.n > 1 {
		e.laneQueued++
		return
	}
	e.nodes = append(e.nodes, node{at: t, seq: e.seq, slot: l.slot, lane: true})
	e.siftUp(len(e.nodes) - 1)
}

// After schedules fn(arg) d picoseconds from now, like AfterFunc.
func (l *Lane) After(d Time, fn EventFunc, arg any) { l.At(l.e.now+d, fn, arg) }

// pop removes the head entry, whose node is the heap's root, and returns
// its callback. The next entry takes over the root with a larger key, so
// one sift-down restores the heap.
func (l *Lane) pop() (EventFunc, any) {
	x := &l.ring[l.head]
	fn, arg := x.fn, x.arg
	*x = lent{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	e := l.e
	if l.n == 0 {
		e.popRoot()
		return fn, arg
	}
	e.laneQueued--
	nx := &l.ring[l.head]
	e.nodes[0].at, e.nodes[0].seq = nx.at, nx.seq
	e.siftDown(0)
	return fn, arg
}

// grow doubles the ring, unwrapping it into the new backing array.
func (l *Lane) grow() {
	n := len(l.ring) * 2
	if n == 0 {
		n = 16
	}
	nr := make([]lent, n)
	for i := 0; i < l.n; i++ {
		nr[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring = nr
	l.head = 0
}
