package cepheus

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// dropScenario drives every kind of switch kill on a k=4 fat-tree: a 512 KiB
// broadcast under 1% data and 0.5% control loss, then a second one through a
// core-switch crash and restart (crash drops, MFT wipes, unknown-group drops
// and NACKs). enable turns sinks on before any traffic.
func dropScenario(t *testing.T, enable func(c *Cluster)) *Cluster {
	t.Helper()
	core.ResetMcstIDs()
	c := NewFatTree(4, Options{Seed: 7})
	enable(c)
	members := []int{0, 3, 6, 9, 12, 15}
	b, err := c.Broadcaster(SchemeCepheus, members, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetLossRate(0.01)
	c.SetControlLossRate(0.005)
	if _, err := c.RunBcastErr(b, 0, 512<<10); err != nil {
		t.Fatal(err)
	}
	// Crash the last core switch that holds the group's MFT (cores are the
	// last switches in topology order), mid-transfer.
	i := len(c.Net.Switches) - 1
	for c.Accels[i].Groups() == 0 {
		i--
	}
	sw := c.Net.Switches[i]
	b.Bcast(0, 512<<10, func() {}) // may or may not finish around the crash
	c.Eng.RunFor(10 * sim.Microsecond)
	sw.Crash()
	c.Eng.RunFor(200 * sim.Microsecond)
	sw.Restart()
	c.Eng.RunFor(6 * sim.Millisecond)
	return c
}

// TestDropSinksAgree checks that every sink a kill is booked into tells the
// same story: per-reason KDrop counts in the trace equal the Metrics fields
// (and port drop-tail Drops), and group attribution's dropped frames and
// bytes equal the trace's multicast-keyed drops.
func TestDropSinksAgree(t *testing.T) {
	c := dropScenario(t, func(c *Cluster) {
		c.EnableTrace(1 << 21)
		c.EnableGroupStats(0)
	})
	defer c.Close()
	if lost := c.Rec.Lost(); lost != 0 {
		t.Fatalf("recorder lost %d events; the comparison needs the full history", lost)
	}
	traced := map[obs.Reason]uint64{}
	var gPkts uint64
	var gBytes int64
	for _, e := range c.Rec.Events() {
		if e.Kind != obs.KDrop {
			continue
		}
		traced[e.Reason]++
		if obs.IsGroupAddr(e.Dst) || obs.IsGroupAddr(e.Src) {
			gPkts++
			gBytes += e.B
		}
	}

	m := c.Metrics()
	var tailDrops uint64
	for _, sw := range c.Net.Switches {
		for _, pt := range sw.Ports {
			tailDrops += pt.Stats.Drops
		}
	}
	for _, h := range c.Net.Hosts {
		tailDrops += h.NIC.Stats.Drops
	}
	want := map[obs.Reason]uint64{
		obs.RQueueLimit:   tailDrops,
		obs.RLoss:         m.DataDrops,
		obs.RCtrlLoss:     m.CtrlDrops,
		obs.RCrash:        m.CrashDrops,
		obs.RNoRoute:      m.NoRouteDrops,
		obs.RFault:        m.FaultDrops,
		obs.RUnknownGroup: m.UnknownGroupDrops,
		obs.RImpairLoss:   m.ImpairDrops,
		obs.RCorrupt:      m.CorruptDrops,
		obs.RStormLoss:    m.CtrlStormDrops,
	}
	for r, n := range traced {
		if _, ok := want[r]; !ok {
			t.Errorf("trace has %d drops with reason %v, which no counter books", n, r)
		}
	}
	for r, n := range want {
		if traced[r] != n {
			t.Errorf("reason %v: trace has %d drops, counters %d", r, traced[r], n)
		}
	}

	var rPkts uint64
	var rBytes int64
	for _, g := range c.GroupReports() {
		rPkts += g.DroppedPkts
		rBytes += g.DroppedBytes
	}
	if rPkts != gPkts || rBytes != gBytes {
		t.Errorf("group stats dropped %d frames / %d bytes, trace %d / %d", rPkts, rBytes, gPkts, gBytes)
	}

	if m.DataDrops == 0 || m.CtrlDrops == 0 || m.CrashDrops == 0 || m.UnknownGroupDrops == 0 || m.MFTWipes == 0 || gPkts == 0 {
		t.Fatalf("workload did not exercise every sink: %v, %d group drops", m, gPkts)
	}
}

// TestSeriesFabColumns: EnableSeries adds one fab/<name> delta column per
// Metrics field, under stable names and in a stable order, and each column's
// deltas sum to its field.
func TestSeriesFabColumns(t *testing.T) {
	var s *obs.SeriesSet
	var last Metrics
	c := dropScenario(t, func(c *Cluster) {
		var err error
		if s, err = c.EnableSeries(100*sim.Microsecond, 0); err != nil {
			t.Fatal(err)
		}
		// Tracked after the fab/* columns, so last is the Metrics they saw
		// at the final sample.
		s.Track("test/last", func() float64 { last = c.Metrics(); return 0 })
		s.Start()
	})
	defer c.Close()
	want := []string{
		"fab/data-drops", "fab/ctrl-drops", "fab/crash-drops", "fab/no-route-drops",
		"fab/fault-drops", "fab/mft-wipes", "fab/epoch-rebuilds", "fab/stale-mrp",
		"fab/unknown-group-drops", "fab/unknown-group-nacks", "fab/impair-drops",
		"fab/corrupt-drops", "fab/ctrl-storm-drops",
	}
	var got []string
	for _, n := range s.Names() {
		if strings.HasPrefix(n, "fab/") {
			got = append(got, n)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fab/* columns:\n got %v\nwant %v", got, want)
	}
	for _, f := range metricFields {
		var sum float64
		for _, v := range s.Values("fab/" + f.col) {
			sum += v
		}
		if uint64(sum) != f.get(&last) {
			t.Errorf("fab/%s deltas sum to %v, Metrics has %d", f.col, sum, f.get(&last))
		}
	}
	if last.DataDrops == 0 || last.CrashDrops == 0 || last.MFTWipes == 0 {
		t.Fatalf("series saw no drops: %v", last)
	}
}

// TestDeliveryLatencySanity checks the always-on latency histograms: a
// completed broadcast must record one observation per accepted data packet
// at each receiver, with quantiles bounded by physical limits.
func TestDeliveryLatencySanity(t *testing.T) {
	core.ResetMcstIDs()
	c := NewTestbed(4, Options{Seed: 1})
	defer c.Close()
	b, err := c.Broadcaster(SchemeCepheus, []int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	jct, err := c.RunBcastErr(b, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	c.SettleUntil(c.Eng.Now() + sim.Millisecond)
	s := c.DeliveryLatency()
	if s.Count == 0 {
		t.Fatal("no delivery latency observations after a completed broadcast")
	}
	if s.Min <= 0 {
		t.Fatalf("delivery latency min %d must be positive (propagation alone is nonzero)", s.Min)
	}
	if s.Max > int64(jct) {
		t.Fatalf("delivery latency max %d exceeds the whole JCT %d", s.Max, jct)
	}
	if s.P50 > s.P99 || s.P99 > s.Max {
		t.Fatalf("quantiles not monotone: %v", s)
	}
	q := c.QueueDepth()
	if q.Count == 0 || q.Max <= 0 {
		t.Fatalf("queue-depth histogram empty after traffic: %v", q)
	}
}

// TestGroupDeliveryLatency checks the per-group histogram merge.
func TestGroupDeliveryLatency(t *testing.T) {
	core.ResetMcstIDs()
	c := NewTestbed(4, Options{Seed: 1})
	defer c.Close()
	g, err := c.NewGroup([]int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var done bool
	g.Members[0].QP.PostSend(32<<10, func() { done = true })
	for !done {
		if !c.Eng.Step() {
			t.Fatal("queue drained before completion")
		}
	}
	c.Eng.RunFor(sim.Millisecond)
	gs := g.DeliveryLatency()
	cs := c.DeliveryLatency()
	if gs.Count == 0 || gs != cs {
		t.Fatalf("group summary %+v differs from cluster summary %+v (single group)", gs, cs)
	}
}

// traceWorkload runs the digest-equivalence workload with the flight
// recorder on and returns the canonical JSONL export cut at a fixed virtual
// horizon — every event at or before it executed in every mode — plus a
// per-(device, kind) census of the same events. partition selects the
// partitioned coordinator even at workers <= 1.
func traceWorkload(t *testing.T, seed int64, workers int, partition bool) ([]byte, map[string]int) {
	t.Helper()
	core.ResetMcstIDs()
	c := NewFatTree(8, Options{Seed: seed, Workers: workers, Partition: partition})
	defer c.Close()
	rec := c.EnableTrace(1 << 20)
	members := make([]int, 16)
	for i := range members {
		members[i] = i * 8
	}
	b, err := c.Broadcaster(SchemeCepheus, members, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunBcastErr(b, 0, 256<<10); err != nil {
		t.Fatal(err)
	}
	const horizon = 60 * sim.Millisecond
	c.SettleUntil(horizon)
	evs := rec.EventsUntil(horizon)
	if len(evs) == 0 {
		t.Fatal("trace captured nothing")
	}
	if rec.Lost() != 0 {
		t.Fatalf("flight recorder overflowed (lost %d); grow capacity so the comparison sees complete histories", rec.Lost())
	}
	census := make(map[string]int)
	for i := range evs {
		census[rec.DevName(evs[i].Dev)+"/"+evs[i].Kind.String()]++
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), census
}

// TestTraceSeqParEquivalence is the tracing analogue of the digest test.
//
// The canonical trace serialization is the partitioned coordinator's: it
// breaks same-nanosecond cross-LP delivery ties by (time, source LP, send
// order), a rule independent of how many goroutines execute the windows. So
// the merged stream must be byte-identical from fully serial execution
// (workers=1 under Partition) through any parallel worker count.
//
// The legacy single engine serializes those same ties by scheduling order
// instead. Both serializations are deterministic and result-equivalent
// (TestSeqParDigestEquivalence pins jct/metrics/retransmits), but tie-order
// leaks into order-sensitive trace payloads — which packet got which queue
// depth — so legacy-vs-partitioned is compared on the tie-insensitive
// per-(device, kind) event census rather than bytes. DESIGN.md §10 records
// the distinction.
func TestTraceSeqParEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-mode fat-tree sweeps in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		ref, refCensus := traceWorkload(t, seed, 1, true)
		for _, w := range []int{2, 4} {
			got, _ := traceWorkload(t, seed, w, true)
			if !bytes.Equal(ref, got) {
				t.Errorf("seed %d: workers=%d trace diverges from serial partitioned run (%d vs %d bytes)", seed, w, len(got), len(ref))
			}
		}
		_, legacyCensus := traceWorkload(t, seed, 0, false)
		if len(legacyCensus) != len(refCensus) {
			t.Errorf("seed %d: legacy engine census has %d (device, kind) classes, partitioned %d", seed, len(legacyCensus), len(refCensus))
		}
		for k, n := range refCensus {
			if legacyCensus[k] != n {
				t.Errorf("seed %d: event census diverges at %s: legacy %d, partitioned %d", seed, k, legacyCensus[k], n)
			}
		}
	}
}
