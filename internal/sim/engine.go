// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps a virtual clock in nanoseconds and executes scheduled
// callbacks in timestamp order. Events scheduled at the same instant run in
// the order they were scheduled, which keeps runs bit-for-bit reproducible
// for a given seed. Everything above it — links, switches, RNICs, the Cepheus
// accelerator — is built as callbacks on this engine.
//
// The scheduler is allocation-free on its hot paths. Events sharing a
// timestamp form FIFO chains, and a hand-rolled 4-ary heap holds one
// pointer-free key per chain: payloads live in a recycled slot arena, so
// sifting triggers no GC write barriers, and replicated packet trains that
// fire in lockstep on many ports cost one key between them instead of one
// each. Dispatching a chain's head hands its key to the next event in place,
// with no sift. The typed Handler dispatch path carries a receiver plus
// argument without building a closure per event, and a Timer owns a single
// slot that Reset re-arms and Stop removes in place — arming and cancelling
// schedules no garbage. See DESIGN.md §8 for the internals.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point on the virtual clock, in nanoseconds since simulation start.
type Time int64

// Convenient duration units, expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < 2*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < 2*Millisecond:
		return fmt.Sprintf("%.2fus", t.Micros())
	case t < 2*Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// Handler is the typed event dispatch path: hot paths implement OnEvent once
// and schedule (receiver, arg) pairs instead of building a closure per event.
// arg carries per-event state; storing pointers in it does not allocate.
type Handler interface {
	OnEvent(e *Engine, arg any)
}

// event is one heap key: a chain's timestamp plus the seq and payload slot
// of the chain's head, its earliest event. Keys are deliberately pointer-free
// so sifting them around the heap copies 24 bytes with no GC write barriers.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among equal timestamps
	slot int32  // index into Engine.slots
}

// before orders events by (timestamp, schedule order).
func (ev *event) before(other *event) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

// funcHandler runs a Schedule closure through the Handler path. A func value
// is pointer-shaped, so storing one in the interface allocates nothing.
type funcHandler func()

func (f funcHandler) OnEvent(*Engine, any) { f() }

// eslot is one scheduled event: its callback, its schedule order, and its
// links in the chain of events that share its timestamp. Exactly one of h or
// tm is set: h the handler path (closures included, as funcHandler), tm a
// Timer's slot (the timer tracks its slot index so Stop/Reset find it in
// O(1)). The record is 64 bytes.
type eslot struct {
	h    Handler
	arg  any
	tm   *Timer
	seq  uint64
	prev int32 // previous slot in the chain, -1 at the head
	next int32 // next slot in the chain, -1 at the tail
	heap int32 // heap index of the chain's key; meaningful at the head only
}

// Engine is a single-threaded discrete-event scheduler with a seeded RNG.
// The zero value is not usable; construct with New.
//
// An engine can also be one logical process (LP) of a Parallel run (see
// parallel.go): it then carries its partition index and per-destination
// outboxes for cross-LP messages, but its heap, clock, and RNG remain
// strictly single-threaded — only the owning worker touches them.
type Engine struct {
	now     Time
	seq     uint64
	events  []event // 4-ary min-heap of chain keys
	slots   []eslot // event arena, indexed by event.slot and chain links
	free    []int32 // recycled slot indices
	rng     *rand.Rand
	stopped bool
	nRun    uint64
	credit  uint64 // the part of nRun that Credit added
	nPush   uint64 // keys placed in the heap by place

	// The newest chain of timestamp lastAt ends at slot lastTail (-1: no
	// chain cached). New events at lastAt join it instead of pushing a key.
	lastAt   Time
	lastTail int32

	// Parallel-execution identity: nil/0 for a standalone engine.
	par *Parallel
	lp  int32

	// Double-buffered cross-LP mailboxes, indexed by write parity then
	// destination LP. During window N the owning worker appends to parity
	// N%2 while destination workers merge the opposite parity (written in
	// window N-1) — so the merge and the next window overlap with a single
	// barrier between them. dirty lists the destinations this LP touched in
	// each parity (the sparse alternative to scanning all LPs^2 boxes every
	// window) and outMin tracks the earliest buffered timestamp per parity,
	// so the coordinator's next-window bound never walks the boxes.
	out    [2][]outbox
	dirty  [2][]int32
	outMin [2]Time

	// Inbound cross-LP slab: messages injected by the coordinator at window
	// barriers, kept sorted by (at, seq) and consumed from slabIdx forward.
	// Slab entries never enter the heap — Step merges the two streams on the
	// fly — so a cross-LP hand-off costs zero heap operations on the
	// destination. slabScratch is the retired backing array, recycled on the
	// next merge so steady-state injection allocates nothing.
	slab        []crossMsg
	slabIdx     int
	slabScratch []crossMsg
}

// New returns an engine whose RNG is seeded with seed. Two engines built with
// the same seed and driven by the same code execute identical schedules.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), lastTail: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// EventsRun reports how many events have executed so far.
func (e *Engine) EventsRun() uint64 { return e.nRun }

// Credit adds n to the executed-event count without dispatching anything.
// The burst packet path uses it to keep event accounting comparable across
// scheduler generations: a train of n back-to-back frames executes as one
// serialization-complete timer plus n arrivals, but each frame still
// represents the two per-frame events (tx done, delivery) the vector path
// replaced, so the train credits the difference.
func (e *Engine) Credit(n uint64) {
	e.nRun += n
	e.credit += n
}

// Dispatches reports how many callbacks have run so far: EventsRun without
// the Credit share.
func (e *Engine) Dispatches() uint64 { return e.nRun - e.credit }

// KeysPushed reports how many keys have been sifted into the event heap so
// far: one per event that found no chain of its timestamp to join, plus one
// per lone timer re-keyed in place. Unlike wall-clock throughput it is exact
// for a given seed, so tests can bound heap work per dispatch.
func (e *Engine) KeysPushed() uint64 { return e.nPush }

// Pending reports how many events are currently scheduled, including
// barrier-injected cross-LP slab messages not yet consumed. Stopped timers do
// not linger here: cancelling frees the slot immediately, and every slot not
// on the free list holds one queued event.
func (e *Engine) Pending() int {
	return len(e.slots) - len(e.free) + (len(e.slab) - e.slabIdx)
}

// LP returns this engine's logical-process index within a Parallel run
// (0 for a standalone engine).
func (e *Engine) LP() int { return int(e.lp) }

// NextEventTime returns the timestamp of the earliest pending event — heap or
// cross-LP slab — and whether one exists.
func (e *Engine) NextEventTime() (Time, bool) {
	t := Time(0)
	ok := false
	if len(e.events) > 0 {
		t, ok = e.events[0].at, true
	}
	if e.slabIdx < len(e.slab) {
		if mt := e.slab[e.slabIdx].at; !ok || mt < t {
			t, ok = mt, true
		}
	}
	return t, ok
}

// ---- Event chains behind a 4-ary heap ----
//
// Events that share a timestamp form FIFO chains, doubly linked through
// their slots, and the heap holds one key per chain: the chain's timestamp
// and its head's (seq, slot). seq only grows, so append order within a chain
// is (at, seq) order and the head is the chain's earliest event. A new event
// joins the chain the (lastAt, lastTail) cache names — by construction the
// newest chain of its timestamp — or else pushes a key of its own. Every event
// of an older chain of a timestamp therefore precedes every event of a newer
// one, and when a head leaves, its successor takes over the key in place: the
// same at and a larger seq, still ahead of any newer chain's key, so the heap
// needs no sift.
//
// A 4-ary layout halves the tree depth of a binary heap and keeps children in
// one cache line. Children of i are 4i+1..4i+4; parent of i is (i-1)/4.

// allocSlot returns a free payload slot, recycling before growing.
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.slots = append(e.slots, eslot{})
	return int32(len(e.slots) - 1)
}

// freeSlot zeroes slot s (dropping callback/arg references for the GC) and
// recycles it.
func (e *Engine) freeSlot(s int32) {
	e.slots[s] = eslot{}
	e.free = append(e.free, s)
}

// setEvent writes key ev into heap position i, maintaining the head's
// back-pointer.
func (e *Engine) setEvent(i int, ev event) {
	e.events[i] = ev
	e.slots[ev.slot].heap = int32(i)
}

// siftUp moves the key at position i toward the root until ordered.
func (e *Engine) siftUp(i int) {
	ev := e.events[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&e.events[parent]) {
			break
		}
		e.setEvent(i, e.events[parent])
		i = parent
	}
	e.setEvent(i, ev)
}

// siftDown moves the key at position i toward the leaves until ordered.
func (e *Engine) siftDown(i int) {
	n := len(e.events)
	ev := e.events[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.events[c].before(&e.events[best]) {
				best = c
			}
		}
		if !e.events[best].before(&ev) {
			break
		}
		e.setEvent(i, e.events[best])
		i = best
	}
	e.setEvent(i, ev)
}

// place writes key ev at heap position i, appending a new key when i is
// len(e.events), and sifts it into order. Every key enters the heap's order
// here, which is what KeysPushed counts.
func (e *Engine) place(i int, ev event) {
	e.nPush++
	if i == len(e.events) {
		e.events = append(e.events, ev)
		e.siftUp(i)
		return
	}
	e.replace(i, ev)
}

// replace overwrites the key at heap position i with ev and restores order. A
// later key can only move down and an earlier one only up, so one sift runs.
func (e *Engine) replace(i int, ev event) {
	if e.events[i].before(&ev) {
		e.events[i] = ev
		e.siftDown(i)
	} else {
		e.events[i] = ev
		e.siftUp(i)
	}
}

// cached reports whether the cache names a chain of timestamp at.
func (e *Engine) cached(at Time) bool { return e.lastTail >= 0 && e.lastAt == at }

// insert stamps slot s with the next seq and queues it at time at: at the
// tail of the cached chain if that chain's timestamp is at, else as the sole
// event of a new chain with its own heap key. Either way s ends the newest
// chain of at, so the cache moves to it.
func (e *Engine) insert(at Time, s int32) {
	e.seq++
	sl := &e.slots[s]
	sl.seq, sl.next = e.seq, -1
	if e.cached(at) {
		sl.prev = e.lastTail
		e.slots[e.lastTail].next = s
	} else {
		sl.prev = -1
		e.place(len(e.events), event{at: at, seq: e.seq, slot: s})
	}
	e.lastAt, e.lastTail = at, s
}

// unlink takes slot s out of its chain without freeing it. A middle or tail
// event just splices out; a head with a successor hands it the key in place;
// a lone head's key leaves the heap.
func (e *Engine) unlink(s int32) {
	sl := &e.slots[s]
	if s == e.lastTail {
		e.lastTail = sl.prev
	}
	if sl.prev >= 0 {
		e.slots[sl.prev].next = sl.next
		if sl.next >= 0 {
			e.slots[sl.next].prev = sl.prev
		}
		return
	}
	i := int(sl.heap)
	if nx := sl.next; nx >= 0 {
		head := &e.slots[nx]
		head.prev, head.heap = -1, int32(i)
		e.events[i].seq, e.events[i].slot = head.seq, nx
		return
	}
	n := len(e.events) - 1
	moved := e.events[n]
	e.events = e.events[:n] // keys hold no pointers; no need to zero
	if i < n {
		e.replace(i, moved)
	}
}

// drop removes slot s from the queue and recycles it, disarming its timer.
func (e *Engine) drop(s int32) {
	e.unlink(s)
	if tm := e.slots[s].tm; tm != nil {
		tm.slot = -1
	}
	e.freeSlot(s)
}

// schedule validates the timestamp, parks the payload in a slot, and queues
// it.
func (e *Engine) schedule(at Time, h Handler, arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	s := e.allocSlot()
	sl := &e.slots[s]
	sl.h, sl.arg = h, arg
	e.insert(at, s)
}

// Schedule runs fn at absolute time at. It panics if at precedes Now, since a
// causal model can never schedule into the past.
func (e *Engine) Schedule(at Time, fn func()) {
	e.schedule(at, funcHandler(fn), nil)
}

// After runs fn d nanoseconds from now. A negative d panics via Schedule.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// ScheduleHandler runs h.OnEvent(e, arg) at absolute time at. Unlike
// Schedule, it allocates nothing when h and arg hold pointers — the typed
// path per-packet machinery (ports, QPs) uses on every hop.
func (e *Engine) ScheduleHandler(at Time, h Handler, arg any) {
	e.schedule(at, h, arg)
}

// AfterHandler runs h.OnEvent(e, arg) d nanoseconds from now.
func (e *Engine) AfterHandler(d Time, h Handler, arg any) {
	e.ScheduleHandler(e.now+d, h, arg)
}

// Timer is a cancellable, re-armable scheduled callback. A timer owns at most
// one event slot: Reset re-arms it in place and Stop removes it immediately,
// so arm/cancel churn (RoCE retransmission timers, DCQCN rate timers) neither
// allocates nor strands dead entries in the scheduler until their deadline.
// Each arm takes one fresh seq and moves the slot to the tail of the newest
// chain of its deadline — or, when the timer is alone in its chain and no
// chain of the new deadline is cached, re-keys its heap entry in place.
// Construct with Engine.NewTimer (reusable across arms) or Engine.AfterTimer.
type Timer struct {
	eng   *Engine
	fn    func()
	slot  int32 // payload slot while armed, -1 otherwise
	fired bool
}

// NewTimer creates an unarmed timer that will run fn each time it fires.
// The callback is fixed at construction so re-arming allocates nothing.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn, slot: -1}
}

// AfterTimer schedules fn after d and returns a handle that can cancel or
// re-arm it.
func (e *Engine) AfterTimer(d Time, fn func()) *Timer {
	t := e.NewTimer(fn)
	t.Reset(d)
	return t
}

// Reset (re-)arms the timer to fire d nanoseconds from now, whether it is
// pending, stopped, or already fired. A pending timer keeps its slot; no new
// entry is created.
func (t *Timer) Reset(d Time) {
	e := t.eng
	at := e.now + d
	if at < e.now {
		panic(fmt.Sprintf("sim: timer reset at %v before now %v", at, e.now))
	}
	t.fired = false
	s := t.slot
	if s < 0 {
		s = e.allocSlot()
		e.slots[s].tm = t
		t.slot = s
		e.insert(at, s)
		return
	}
	sl := &e.slots[s]
	if sl.prev < 0 && sl.next < 0 && (e.lastTail == s || !e.cached(at)) {
		// Alone, with no other chain to join: re-key in place. The fresh
		// seq makes this the newest chain of at.
		e.seq++
		sl.seq = e.seq
		e.place(int(sl.heap), event{at: at, seq: e.seq, slot: s})
		e.lastAt, e.lastTail = at, s
		return
	}
	e.unlink(s)
	e.insert(at, s)
}

// Stop cancels the timer if it is pending, removing its entry from the
// scheduler immediately. It reports whether the call prevented the callback
// from running.
func (t *Timer) Stop() bool {
	if t.slot < 0 {
		return false
	}
	t.eng.drop(t.slot)
	return true
}

// Pending reports whether the timer is armed and has not yet fired.
func (t *Timer) Pending() bool { return t.slot >= 0 }

// Fired reports whether the callback ran since the last Reset.
func (t *Timer) Fired() bool { return t.fired }

// Step executes the next pending event, advancing the clock to its timestamp.
// It reports whether an event was executed.
//
// Two fast paths keep the hot loop cheap. A cross-LP slab message earlier
// than the heap top dispatches straight from the slab — no heap traffic at
// all. A timer at the heap top dispatches in place: if its callback re-arms
// it (the dominant pattern for port serialization chains and QP pacers),
// Reset moves the existing slot instead of a free/alloc pair. Any other head
// leaves before its callback runs, so a callback that schedules immediately
// reuses the slot it just vacated.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	if e.slabIdx < len(e.slab) {
		m := &e.slab[e.slabIdx]
		if len(e.events) == 0 || m.at < e.events[0].at ||
			(m.at == e.events[0].at && m.seq < e.events[0].seq) {
			e.slabIdx++
			e.now = m.at
			e.nRun++
			h, arg := m.h, m.arg
			*m = crossMsg{} // drop refs for the GC
			h.OnEvent(e, arg)
			return true
		}
	}
	if len(e.events) == 0 {
		return false
	}
	top := e.events[0]
	e.now = top.at
	e.nRun++
	if tm := e.slots[top.slot].tm; tm != nil {
		tm.fired = true
		tm.fn()
		if tm.slot == top.slot && tm.fired {
			// Neither Reset (clears fired; may recycle the same slot) nor
			// Stop (clears slot) ran in the callback: retire the entry,
			// which still heads its chain.
			e.drop(top.slot)
		}
		return true
	}
	h, arg := e.slots[top.slot].h, e.slots[top.slot].arg
	e.unlink(top.slot)
	e.freeSlot(top.slot)
	h.OnEvent(e, arg)
	return true
}

// Run executes events until none remain or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	for !e.stopped {
		at, ok := e.NextEventTime()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor executes events for d virtual nanoseconds from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Stop halts Run/RunUntil after the current event. Further Step calls return
// false until Resume.
func (e *Engine) Stop() { e.stopped = true }

// Resume clears a Stop so the engine can run again.
func (e *Engine) Resume() { e.stopped = false }

// ScheduleRemote schedules h.OnEvent(dst, arg) at absolute time at on dst,
// which may be a different logical process of the same Parallel run. Calls
// targeting the local engine degrade to ScheduleHandler; cross-LP messages
// are appended to a single-producer outbox of the window's write parity and
// merged into dst's slab by dst's own worker at the start of the next window
// in a fixed (time, source LP, send order) total order, so results are
// independent of how many workers drive the run.
//
// The first message to a destination this window also records it in the
// parity's dirty list, which is what the coordinator transposes into
// per-destination merge work — no LP ever scans another LP's empty boxes.
//
// Conservative synchronization requires at to lie at or beyond the end of
// the current window; the network layer guarantees this by construction,
// since every cross-LP link's propagation delay is at least the lookahead.
func (e *Engine) ScheduleRemote(dst *Engine, at Time, h Handler, arg any) {
	if dst == e {
		e.ScheduleHandler(at, h, arg)
		return
	}
	if e.par == nil || dst.par != e.par {
		panic("sim: ScheduleRemote across engines that do not share a Parallel run")
	}
	if e.out[0] == nil {
		panic("sim: ScheduleRemote before Parallel.Finalize")
	}
	wp := e.par.wp
	d := dst.lp
	box := e.out[wp][d]
	if len(box) == 0 {
		e.dirty[wp] = append(e.dirty[wp], d)
	}
	if at < e.outMin[wp] {
		e.outMin[wp] = at
	}
	e.out[wp][d] = append(box, crossMsg{at: at, h: h, arg: arg})
}

// injectSlab hands this engine one window barrier's worth of inbound cross-LP
// messages, already sorted by the coordinator's canonical (timestamp, source
// LP, send order) rule. Each message takes the next local sequence number in
// that order — exactly the numbering the heap-insertion drain used to assign
// — and the batch is merged with any not-yet-consumed slab remainder.
//
// The merge only compares timestamps: every remainder entry survived at least
// one full window (runWindow consumed everything earlier), so its timestamp
// is at or beyond the window end that every new message's timestamp is also
// bounded below by, and its sequence number is older. Taking remainder
// entries first on timestamp ties is therefore (at, seq) order.
func (e *Engine) injectSlab(msgs []crossMsg) {
	for i := range msgs {
		e.seq++
		msgs[i].seq = e.seq
	}
	rem := e.slab[e.slabIdx:]
	if len(rem) == 0 {
		e.slab = append(e.slab[:0], msgs...)
		e.slabIdx = 0
		return
	}
	merged := e.slabScratch[:0]
	i, j := 0, 0
	for i < len(rem) && j < len(msgs) {
		if rem[i].at <= msgs[j].at {
			merged = append(merged, rem[i])
			i++
		} else {
			merged = append(merged, msgs[j])
			j++
		}
	}
	merged = append(merged, rem[i:]...)
	merged = append(merged, msgs[j:]...)
	for k := range rem {
		rem[k] = crossMsg{} // old backing array: drop refs for the GC
	}
	e.slabScratch = e.slab[:0]
	e.slab = merged
	e.slabIdx = 0
}

// runWindow executes every pending event with timestamp strictly before end,
// leaving the clock at the last executed event. It is the per-LP body of one
// lookahead window of a Parallel run.
func (e *Engine) runWindow(end Time) {
	for !e.stopped {
		at, ok := e.NextEventTime()
		if !ok || at >= end {
			return
		}
		e.Step()
	}
}
