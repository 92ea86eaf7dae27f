package sim

import "testing"

// BenchmarkEngineSchedule measures raw event throughput: the budget every
// packet-level experiment spends.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if i%1024 == 0 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineChained measures the self-scheduling pattern ports and
// QPs use (each event schedules the next).
func BenchmarkEngineChained(b *testing.B) {
	e := New(1)
	n := 0
	var next func()
	next = func() {
		n++
		if n < b.N {
			e.After(10, next)
		}
	}
	b.ReportAllocs()
	e.After(10, next)
	e.Run()
}

// BenchmarkTimerChurn measures arm/cancel cycles (RTO management).
func BenchmarkTimerChurn(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := e.AfterTimer(1000, func() {})
		t.Stop()
		if i%4096 == 0 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkTimerReset measures the re-armable path QPs use per ACK: one timer,
// endlessly re-armed in place. Should be allocation-free.
func BenchmarkTimerReset(b *testing.B) {
	e := New(1)
	t := e.NewTimer(func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Reset(1000)
	}
	t.Stop()
}

// BenchmarkHandlerDispatch measures the typed-handler path ports use per hop.
// Should be allocation-free when the handler and arg are pointers.
func BenchmarkHandlerDispatch(b *testing.B) {
	e := New(1)
	h := &nopHandler{}
	arg := &struct{}{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AfterHandler(Time(i%1000), h, arg)
		if i%1024 == 0 {
			e.Run()
		}
	}
	e.Run()
}

type nopHandler struct{}

func (*nopHandler) OnEvent(*Engine, any) {}

// holdTimers is about the number of events pending on a k=8 fat-tree while
// one 1 MiB broadcast replicates to 65 members: nearly all of them port
// serialization timers that re-arm themselves when they fire.
const holdTimers = 208

// benchHold is the classic hold model over self-re-arming timers: timer i
// first fires at offset(i), then every period(i). One op is one fire plus
// its re-arm.
func benchHold(b *testing.B, period, offset func(i int) Time) {
	e := New(1)
	for i := 0; i < holdTimers; i++ {
		var t *Timer
		d := period(i)
		t = e.NewTimer(func() { t.Reset(d) })
		t.Reset(offset(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkTimerHoldTies shares one 144 ns period, staggered into 16 phases,
// so the pending timers sit on ~17 distinct deadlines: the lockstep shape of
// replicated packet trains.
func BenchmarkTimerHoldTies(b *testing.B) {
	benchHold(b, func(int) Time { return 144 }, func(i int) Time { return Time(i%16) * 9 })
}

// BenchmarkTimerHoldDistinct gives every timer its own period, so almost no
// two deadlines tie: the cost of the queue when there is nothing to chain.
func BenchmarkTimerHoldDistinct(b *testing.B) {
	benchHold(b, func(i int) Time { return 1000 + Time(i) }, func(i int) Time { return Time(i) })
}
