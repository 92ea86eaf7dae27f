package sim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// The ordering oracle drives the engine and a reference queue with the same
// random program and demands identical logs. The reference keeps every
// pending event in a flat list and always runs the least (at, seq) one —
// the total order the engine promises — so any slip in how the engine
// chains same-timestamp events, hands a chain's key on, or re-keys a timer
// shows up as a diverging log. Timestamps are drawn from a window of
// oracleSpan instants past now, so nearly every event ties with another.

const (
	oracleTimers = 4
	oracleSpan   = 4
)

// oracleQueue is the scheduler surface a program drives.
type oracleQueue interface {
	now() Time
	schedule(at Time, handler bool, fn func())
	newTimer(fn func()) oracleTimer
	step() bool
	runUntil(t Time)
	pending() int
}

type oracleTimer interface {
	reset(d Time)
	stop() bool
	pending() bool
}

// engineQueue adapts Engine.
type engineQueue struct{ e *Engine }

type fnHandler struct{}

func (fnHandler) OnEvent(_ *Engine, arg any) { arg.(func())() }

func (q engineQueue) now() Time { return q.e.Now() }
func (q engineQueue) schedule(at Time, handler bool, fn func()) {
	if handler {
		q.e.ScheduleHandler(at, fnHandler{}, fn)
	} else {
		q.e.Schedule(at, fn)
	}
}
func (q engineQueue) newTimer(fn func()) oracleTimer { return engineTimer{q.e.NewTimer(fn)} }
func (q engineQueue) step() bool                     { return q.e.Step() }
func (q engineQueue) runUntil(t Time)                { q.e.RunUntil(t) }
func (q engineQueue) pending() int                   { return q.e.Pending() }

type engineTimer struct{ t *Timer }

func (t engineTimer) reset(d Time)  { t.t.Reset(d) }
func (t engineTimer) stop() bool    { return t.t.Stop() }
func (t engineTimer) pending() bool { return t.t.Pending() }

// refQueue is the reference model: an unordered list scanned for its least
// (at, seq) entry on every step.
type refQueue struct {
	clock Time
	seq   uint64
	items []refItem
}

type refItem struct {
	at  Time
	seq uint64
	fn  func()
	tm  *refTimer
}

type refTimer struct {
	q     *refQueue
	fn    func()
	armed bool
}

func (q *refQueue) now() Time { return q.clock }
func (q *refQueue) schedule(at Time, _ bool, fn func()) {
	q.seq++
	q.items = append(q.items, refItem{at: at, seq: q.seq, fn: fn})
}
func (q *refQueue) newTimer(fn func()) oracleTimer { return &refTimer{q: q, fn: fn} }
func (q *refQueue) pending() int                   { return len(q.items) }

func (q *refQueue) least() int {
	best := -1
	for i, it := range q.items {
		if best < 0 || it.at < q.items[best].at ||
			(it.at == q.items[best].at && it.seq < q.items[best].seq) {
			best = i
		}
	}
	return best
}

func (q *refQueue) step() bool {
	i := q.least()
	if i < 0 {
		return false
	}
	it := q.items[i]
	q.items = slices.Delete(q.items, i, i+1)
	q.clock = it.at
	if it.tm != nil {
		it.tm.armed = false
		it.tm.fn()
	} else {
		it.fn()
	}
	return true
}

func (q *refQueue) runUntil(t Time) {
	for {
		i := q.least()
		if i < 0 || q.items[i].at > t {
			break
		}
		q.step()
	}
	if q.clock < t {
		q.clock = t
	}
}

func (t *refTimer) reset(d Time) {
	t.stop()
	q := t.q
	q.seq++
	q.items = append(q.items, refItem{at: q.clock + d, seq: q.seq, tm: t})
	t.armed = true
}

func (t *refTimer) stop() bool {
	if !t.armed {
		return false
	}
	t.armed = false
	i := slices.IndexFunc(t.q.items, func(it refItem) bool { return it.tm == t })
	t.q.items = slices.Delete(t.q.items, i, i+1)
	return true
}

func (t *refTimer) pending() bool { return t.armed }

// runOracle interprets prog as (op, param) byte pairs against q and returns
// the log: every callback's label and time, every Step and Stop result, and
// after each op the clock, Pending() and each timer's Pending().
//
//	op%8 0, 1  Schedule / ScheduleHandler at now+param%span; a follow-up
//	           byte says what the callback does (see follow)
//	op%8 2     timer param%T Reset(param/T % span)
//	op%8 3     timer param%T Stop
//	op%8 4     Step
//	op%8 5     RunUntil(now + param%span)
//	op%8 6     timer param%T's callback: re-arm itself after
//	           (param/T)%span, for its next (param/T/span)%4 fires, and,
//	           if param&0x80, schedule an event at its own instant
//	op%8 7     Run until the queue is empty
//
// Callbacks schedule a bounded amount of work, so every program terminates.
func runOracle(q oracleQueue, prog []byte) []int64 {
	var log []int64
	note := func(v ...int64) { log = append(log, v...) }
	next := 0
	read := func() int {
		if next >= len(prog) {
			return 0
		}
		next++
		return int(prog[next-1])
	}

	labels := int64(0)
	var event func(f int) func()
	// follow encodes what an event's callback does after logging itself:
	// f%4 0 nothing; 1 schedule another event at now+(f/4)%span; 2 Reset
	// timer (f/4)%T to (f/16)%span; 3 Stop timer (f/4)%T.
	timers := make([]oracleTimer, oracleTimers)
	follow := func(f int) {
		switch f % 4 {
		case 1:
			q.schedule(q.now()+Time(f/4%oracleSpan), f&0x80 != 0, event(0))
		case 2:
			timers[f/4%oracleTimers].reset(Time(f / 16 % oracleSpan))
		case 3:
			note(b2i(timers[f/4%oracleTimers].stop()))
		}
	}
	event = func(f int) func() {
		labels++
		id := labels
		return func() {
			note(id, int64(q.now()))
			follow(f)
		}
	}

	rearm := make([]Time, oracleTimers)
	rearms := make([]int, oracleTimers)
	echo := make([]bool, oracleTimers)
	for j := range timers {
		timers[j] = q.newTimer(func() {
			note(-int64(j+1), int64(q.now()))
			if rearms[j] > 0 {
				rearms[j]--
				timers[j].reset(rearm[j])
			}
			if echo[j] {
				q.schedule(q.now(), false, event(0))
			}
		})
	}

	for next < len(prog) {
		op, p := read(), read()
		switch op % 8 {
		case 0, 1:
			handler := op%8 == 1
			q.schedule(q.now()+Time(p%oracleSpan), handler, event(read()))
		case 2:
			timers[p%oracleTimers].reset(Time(p / oracleTimers % oracleSpan))
		case 3:
			note(b2i(timers[p%oracleTimers].stop()))
		case 4:
			note(b2i(q.step()))
		case 5:
			q.runUntil(q.now() + Time(p%oracleSpan))
		case 6:
			j := p % oracleTimers
			rearm[j] = Time(p / oracleTimers % oracleSpan)
			rearms[j] = p / (oracleTimers * oracleSpan) % 4
			echo[j] = p&0x80 != 0
		case 7:
			for q.step() {
			}
		}
		note(-100, int64(q.now()), int64(q.pending()))
		for _, tm := range timers {
			note(b2i(tm.pending()))
		}
	}
	return log
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// checkOrder runs prog on both queues and reports where their logs first
// differ.
func checkOrder(prog []byte) error {
	got := runOracle(engineQueue{New(1)}, prog)
	want := runOracle(&refQueue{}, prog)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			lo := max(0, i-8)
			return fmt.Errorf("log diverges at %d:\nengine    %v\nreference %v", i, got[lo:i+1], want[lo:i+1])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("log lengths differ: engine %d, reference %d", len(got), len(want))
	}
	return nil
}

// FuzzEngineOrder checks the engine against the reference queue on fuzzed
// programs. Seeds live in testdata/fuzz/FuzzEngineOrder.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if err := checkOrder(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEngineOrderQuick is the same check over testing/quick's random
// programs, so every plain test run covers it.
func TestEngineOrderQuick(t *testing.T) {
	f := func(prog []byte) bool {
		if err := checkOrder(prog); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
