package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	cepheus "repro"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// Indices into counters: deterministic work counts summed over the cluster.
const (
	cEvents = iota
	cDataSent
	cRetransmits
	cAcksSent
	cNacksSent
	cTimeouts
	cGoBackN
	cReplicated
	cAcksIn
	cAcksEmitted
	cNacksIn
	cNacksEmitted
	cRetxFiltered
	cMRP
	cTxPackets
	cECNMarks
	cPauses
	cDrops
	nCounters
)

type counters [nCounters]uint64

// snapshot reads the public counters of every layer; the cluster must be
// quiescent (between ops).
func snapshot(c *cepheus.Cluster) counters {
	var k counters
	k[cEvents] = c.EventsRun()
	for _, r := range c.RNICs {
		s := &r.Stats
		k[cDataSent] += s.DataSent
		k[cRetransmits] += s.Retransmits
		k[cAcksSent] += s.AcksSent
		k[cNacksSent] += s.NacksSent
		k[cTimeouts] += s.Timeouts
		k[cGoBackN] += s.GoBackN
	}
	for _, a := range c.Accels {
		s := &a.Stats
		k[cReplicated] += s.DataReplicated
		k[cAcksIn] += s.AcksIn
		k[cAcksEmitted] += s.AcksEmitted
		k[cNacksIn] += s.NacksIn
		k[cNacksEmitted] += s.NacksEmitted
		k[cRetxFiltered] += s.RetransFiltered
		k[cMRP] += s.MRPProcessed
	}
	port := func(s *simnet.PortStats) {
		k[cTxPackets] += s.TxPackets
		k[cECNMarks] += s.ECNMarks
		k[cPauses] += s.PauseSent
		k[cDrops] += s.Drops
	}
	for _, sw := range c.Net.Switches {
		for _, p := range sw.Ports {
			port(&p.Stats)
		}
	}
	for _, h := range c.Net.Hosts {
		port(&h.NIC.Stats)
	}
	k[cDrops] += c.Metrics().DataDrops
	return k
}

func (k counters) sub(o counters) counters {
	for i := range k {
		k[i] -= o[i]
	}
	return k
}

// fingerprint is what a fixed run of ops simulated: its counter deltas and
// simulated-time results. Two runs of the same seed must agree exactly.
type fingerprint struct {
	Ops   int
	Delta counters
	Sim   simMetrics
	Queue obs.Summary
}

// chunkTime is how much busy time a chunk of a closed loop's ops spans.
const chunkTime = 2 * time.Second

// phase is one timed run of a workload.
type phase struct {
	setupS  []float64 // seconds per fresh set-up
	opMs    []float64 // host milliseconds per timed op
	ends    []int     // chunk boundaries in opMs (see chunkStats)
	busy    time.Duration
	mallocs uint64
	heapMB  float64
	fps     map[int]fingerprint // by window seed index; 0 for a closed loop
	seq     []sim.Time          // simulated JCT of every op, in order
	mrp     float64             // MRP messages processed per registered group

	// Traced runs only.
	spans   *spanRec
	prof    []byte
	gcPct   float64
	pending []float64
	exec    *obs.ExecReport
	topo    topoCost
}

// runPhase sets the workload up and drives it in a closed loop until budget
// has passed. The first ops after a warm round form the fingerprint; a
// windowed workload (one whose instance is spent after a window of ops)
// instead sets up one window after another, each fingerprinted whole.
func runPhase(w *workload, seed int64, budget time.Duration, traced bool, t *tally) (*phase, error) {
	ph := &phase{fps: map[int]fingerprint{}}
	o := setupOpts{stream: lossyStream}
	if traced {
		ph.spans = newSpanRec()
		o.spans, o.profile = ph.spans, w.partitioned
		ph.topo = scratchTopo(w, seed, ph.spans)
	}
	start := time.Now()
	setup := func(seed int64) (*instance, error) {
		runtime.GC() // collect the previous instance outside the timing
		id := ph.spans.begin("setup", -1)
		t0 := time.Now()
		inst, err := w.build(w, seed, o, t)
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
		ph.spans.end(id)
		return inst, err
	}
	for i := 1; i < w.setups; i++ {
		inst, err := setup(seed)
		if err != nil {
			return nil, err
		}
		inst.c.Close()
	}
	var prof profiler
	var chunkBusy time.Duration
	timed := func(inst *instance, i int) {
		id := ph.spans.begin("op", len(ph.opMs))
		t0 := time.Now()
		inst.op(i, t)
		d := time.Since(t0)
		ph.spans.end(id)
		ph.busy += d
		ph.opMs = append(ph.opMs, float64(d.Nanoseconds())/1e6)
		if chunkBusy += d; inst.window == 0 && chunkBusy >= chunkTime {
			ph.ends, chunkBusy = append(ph.ends, len(ph.opMs)), 0
		}
		if traced && inst.window > 0 {
			ph.pending = append(ph.pending, float64(pending(inst.c)))
		}
	}
	// A windowed workload starts another window only if one more, as long
	// as the last, still ends within the budget. Window j runs
	// windowSeed(seed, j), except that the last window repeats window 0,
	// which it must match exactly.
	var last time.Duration
	for win := 0; win == 0 || time.Since(start)+last < budget; win++ {
		began, j := time.Now(), win
		if win > 0 && time.Since(start)+2*last >= budget {
			j = 0
		}
		inst, err := setup(windowSeed(seed, j))
		if err != nil {
			return nil, err
		}
		n, first := inst.window, 0
		if win == 0 {
			ph.mrp = float64(snapshot(inst.c)[cMRP]) / float64(inst.groups)
		}
		if n == 0 {
			// Warm round, one op per group: caches fill, QPs and DCQCN
			// leave their cold start before anything is timed.
			n, first = w.fpOps, inst.groups
			for i := 0; i < first; i++ {
				inst.op(i, t)
			}
			if win == 0 {
				ph.heapMB = liveHeapMB()
			}
		}
		if traced && win == 0 {
			if err := prof.start(); err != nil {
				inst.c.Close()
				return nil, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := snapshot(inst.c)
		inst.c.ResetExecProfile()
		for i := first; i < first+n; i++ {
			timed(inst, i)
			if win == 0 && inst.window > 0 && i == 0 {
				ph.heapMB = liveHeapMB()
			}
		}
		fp := fingerprint{Ops: n, Delta: snapshot(inst.c).sub(c0), Sim: inst.sim(), Queue: inst.c.QueueDepth()}
		if win == 0 && traced {
			ph.exec = inst.c.ExecProfile()
		}
		if prev, ok := ph.fps[j]; !ok {
			ph.fps[j] = fp
		} else if fp != prev {
			t.fail(1, "window %d repeated window %d's seed but simulated differently:\n  %+v\n  %+v", win, j, prev, fp)
		} else {
			t.ok(1)
		}
		if inst.window == 0 {
			for i := first + n; time.Since(start) < budget; i++ {
				timed(inst, i)
			}
		}
		runtime.ReadMemStats(&m1)
		ph.mallocs += m1.Mallocs - m0.Mallocs
		if inst.window > 0 || len(ph.ends) == 0 || chunkBusy >= chunkTime/2 {
			// A window is one chunk, its ops differ too much to split it;
			// a closed loop's last chunk counts if it ran half as long.
			ph.ends, chunkBusy = append(ph.ends, len(ph.opMs)), 0
		}
		if inst.window == 0 {
			ph.seq = append([]sim.Time(nil), inst.seq()...)
			if traced {
				ph.prof, ph.gcPct = prof.stop()
				ph.pending = inst.sampleOps(t)
			}
			inst.c.Close()
			return ph, nil
		}
		inst.c.Close()
		last = time.Since(began)
	}
	if traced {
		ph.prof, ph.gcPct = prof.stop()
	}
	return ph, nil
}

func pending(c *cepheus.Cluster) int {
	if c.Par != nil {
		return c.Par.Pending()
	}
	return c.Eng.Pending()
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// auditPass runs a short untimed pass of the workload with the protocol
// auditor attached from before registration; any violation fails the run.
// It returns the simulated JCT of each op it ran, if the workload has them.
func auditPass(w *workload, seed int64, t *tally) ([]sim.Time, error) {
	inst, err := w.build(w, seed, setupOpts{audit: true, stream: lossyAuditStream}, t)
	if err != nil {
		return nil, err
	}
	defer inst.c.Close()
	n := w.auditOps
	if n == 0 {
		n = inst.window
	}
	for i := 0; i < n; i++ {
		inst.op(i, t)
	}
	c := inst.c
	c.Rec.Barrier()
	switch lost := c.Rec.ShardLost(); {
	case !c.Aud.Clean():
		var b strings.Builder
		c.Aud.Report(&b)
		t.fail(1, "%s\n%s", c.Aud.Verdict(lost), b.String())
	case lost > 0:
		t.fail(1, "audit incomplete: the flight recorder lost %d events", lost)
	default:
		t.ok(1)
	}
	if inst.seq == nil {
		return nil, nil
	}
	return inst.seq(), nil
}

// sameSeq checks that two runs of one seed simulated the same JCT for
// every op both ran.
func sameSeq(t *tally, what string, a, b []sim.Time) {
	n := min(len(a), len(b))
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.fail(1, "%s disagree at op %d: simulated JCT %v vs %v", what, i, a[i], b[i])
			return
		}
	}
	t.ok(1)
}

// profiler brackets the traced run's timed region with a CPU profile and
// the runtime's own GC CPU accounting.
type profiler struct {
	buf       bytes.Buffer
	gc0, cpu0 float64
	on        bool
}

func (p *profiler) start() error {
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p.gc0, p.cpu0 = cpuClasses()
	p.on = true
	return nil
}

// stop returns the profile and GC's share of the busy CPU time in between.
func (p *profiler) stop() ([]byte, float64) {
	if !p.on {
		return nil, 0
	}
	pprof.StopCPUProfile()
	gc, cpu := cpuClasses()
	p.on = false
	return p.buf.Bytes(), 100 * ratio(gc-p.gc0, cpu-p.cpu0)
}

// cpuClasses reads the runtime's estimate of GC CPU time and of all
// non-idle CPU time, in seconds.
func cpuClasses() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// topoCost is the topology layer measured on its own: the fat-tree built
// (and, for partitioned workloads, pod-partitioned) on a scratch engine.
type topoCost struct {
	buildMs, partitionMs, heapMB float64
}

// scratchTopo times topo.FatTreeWithTrunk and Network.PartitionPods outside
// any cluster, median of three, and measures the built fabric's live heap. Only
// groups4k-k16 partitions its cluster; the others still get the layer's
// cost measured on their fabric.
func scratchTopo(w *workload, seed int64, sp *spanRec) topoCost {
	var build, part []float64
	var heap float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id := sp.begin("topo.build", -1)
		t0 := time.Now()
		net := topo.FatTreeWithTrunk(sim.New(seed), w.k, topo.DefaultLinkRate, topo.DefaultPropDelay, topo.DefaultPropDelay)
		build = append(build, ms(time.Since(t0)))
		sp.end(id)
		runtime.GC()
		runtime.ReadMemStats(&m1)
		heap = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / 1e6

		par := sim.NewParallel(seed, 1)
		id = sp.begin("topo.partition", -1)
		t0 = time.Now()
		net.PartitionPods(par)
		part = append(part, ms(time.Since(t0)))
		sp.end(id)
		par.Close()
	}
	return topoCost{buildMs: median(build), partitionMs: median(part), heapMB: heap}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
