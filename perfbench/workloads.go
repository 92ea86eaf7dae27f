package main

import (
	"fmt"
	"math/rand"

	cepheus "repro"
	"repro/internal/amcast"
	"repro/internal/core"
	"repro/internal/roce"
	"repro/internal/sim"
)

// Workload parameters (see BENCHMARK.json for why each workload exists).
const (
	bcastBytes   = 1 << 20
	bcastMembers = 65
	chainBytes   = 256 << 10

	groupsCount   = 64
	groupsMembers = 16
	groupsBytes   = 4 << 10

	lossyGroups  = 16
	lossyMembers = 8
	lossyMsg     = 128 << 10
	lossyStream  = 10 * sim.Millisecond
	lossyDrain   = 5 * sim.Millisecond
	lossySlice   = 50 * sim.Microsecond
	lossyRate    = 1e-4
	// lossyAuditStream shortens the audited pass's streaming phase; the
	// drain stays full length so every message must still arrive.
	lossyAuditStream = 1 * sim.Millisecond
	// auditTraceCap sizes the flight recorder behind the auditor so that no
	// event is overwritten between two audit drains of a sequential cluster,
	// even under lossy16-k8's full load; a lost event would read as a
	// violation. Partitioned clusters drain at every window barrier and
	// need far less.
	auditTraceCap     = 1 << 21
	auditTraceCapPart = 1 << 18
)

// workload is one named benchmark input. Every workload drives its cluster
// from one goroutine (Workers: 1) in a closed loop: the next op starts only
// after the previous one completed.
type workload struct {
	name string
	// k is the fat-tree arity; partitioned selects the pod-partitioned
	// coordinator (run serially).
	k           int
	partitioned bool
	// setups is how many fresh set-ups a run times for setup_s, besides
	// the ones a windowed workload makes for each window.
	setups int
	// fpOps is how many ops after the warm round make up the fingerprint:
	// the counter deltas and simulated results that must repeat exactly.
	// Windowed workloads fingerprint whole windows.
	fpOps int
	// auditOps is how many ops the audited pass runs (0: one whole window).
	auditOps int
	build    func(w *workload, seed int64, o setupOpts, t *tally) (*instance, error)
}

var workloads = []*workload{
	{name: "bcast1m-k8", k: 8, setups: 25, fpOps: 8, auditOps: 2, build: buildBcast},
	{name: "groups4k-k16", k: 16, partitioned: true, setups: 9, fpOps: 2 * groupsCount, auditOps: 2 * groupsCount, build: buildGroups},
	{name: "lossy16-k8", k: 8, setups: 25, build: buildLossy},
	{name: "chain1m-k8", k: 8, setups: 25, fpOps: 8, auditOps: 2, build: buildChain},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setupOpts vary how a workload instance is built without changing what it
// simulates.
type setupOpts struct {
	spans   *spanRec // traced run: spans around each setup call
	profile bool     // Options.Profile: executor telemetry (host side only)
	audit   bool     // attach the protocol auditor before any traffic
	stream  sim.Time // lossy16-k8: how long sources keep posting
}

// instance is one set-up workload: its cluster and the op that drives it.
type instance struct {
	c      *cepheus.Cluster
	groups int
	// op runs op i, checks its outputs and books the result in t.
	op func(i int, t *tally)
	// window is how many ops the instance runs before it is spent; 0 for an
	// open-ended closed loop.
	window int
	// sim reports the simulated-time results of the ops run so far.
	sim func() simMetrics
	// seq, if set, returns the simulated JCT of every op run so far, in
	// order: two runs of one seed must agree on their common prefix.
	seq func() []sim.Time
	// sampleOps, if set, runs one more op per group in small slices of
	// simulated time and returns the event-queue depth after each slice.
	sampleOps func(t *tally) []float64
}

// simMetrics are the simulated-time results: deterministic for a seed.
type simMetrics struct {
	JCTus       float64
	MsgP50us    float64
	MsgP99us    float64
	GoodputGbps float64
	// Unstable counts groups whose repeated broadcasts did not all take the
	// same simulated time.
	Unstable int
}

// newCluster builds a k-ary fat-tree under DCQCN with the seed driving the
// simulation.
func newCluster(w *workload, seed int64, o setupOpts) *cepheus.Cluster {
	core.ResetMcstIDs() // group addresses restart per cluster, as in a fresh process
	tr := roce.DefaultConfig()
	tr.DCQCN = true
	id := o.spans.begin("cepheus.build", -1)
	c := cepheus.NewFatTree(w.k, cepheus.Options{Seed: seed, Transport: &tr,
		Partition: w.partitioned, PodPartition: w.partitioned, Profile: o.profile})
	o.spans.end(id)
	if o.audit {
		capacity := auditTraceCap
		if w.partitioned {
			capacity = auditTraceCapPart
		}
		c.EnableTrace(capacity)
		c.EnableAudit()
	}
	return c
}

// register creates and registers one Cepheus group rooted at members[0].
func register(c *cepheus.Cluster, members []int, o setupOpts, t *tally) (*core.Group, error) {
	id := o.spans.begin("core.register", -1)
	g, err := c.NewGroup(members, 0)
	o.spans.end(id)
	if err != nil {
		t.fail(1, "register %v: %v", members, err)
		return nil, err
	}
	t.ok(1)
	return g, nil
}

// windowSeed is the seed of window j of a windowed workload: the run's seed
// for window 0 and the j-th draw from it after that, so that one run covers
// several loss patterns and placements rather than repeating one.
func windowSeed(seed int64, j int) int64 {
	rng := rand.New(rand.NewSource(seed))
	for ; j > 0; j-- {
		seed = rng.Int63()
	}
	return seed
}

// striped places n members round-robin over the k pods of a fat-tree —
// member i in pod i mod k — on hosts the seed draws within each pod.
func striped(rng *rand.Rand, k, n int) []int {
	perPod := k * k / 4
	pods := make([][]int, k)
	for p := range pods {
		pods[p] = rng.Perm(perPod)
	}
	hosts := make([]int, n)
	for i := range hosts {
		p := i % k
		hosts[i] = p*perPod + pods[p][i/k]
	}
	return hosts
}

func buildBcast(w *workload, seed int64, o setupOpts, t *tally) (*instance, error) {
	c := newCluster(w, seed, o)
	members := striped(rand.New(rand.NewSource(seed)), w.k, bcastMembers)
	g, err := register(c, members, o, t)
	if err != nil {
		c.Close()
		return nil, err
	}
	return newBcasts(c, []amcast.Broadcaster{&amcast.Cepheus{Group: g}}, [][]int{members}, bcastBytes), nil
}

// buildChain sets up exactly what buildBcast does, group registration
// included, then drives the members with the Chain overlay instead.
func buildChain(w *workload, seed int64, o setupOpts, t *tally) (*instance, error) {
	c := newCluster(w, seed, o)
	members := striped(rand.New(rand.NewSource(seed)), w.k, bcastMembers)
	if _, err := register(c, members, o, t); err != nil {
		c.Close()
		return nil, err
	}
	// §V-C's Chain configuration: as many slices as members.
	id := o.spans.begin("amcast.comm", -1)
	b, err := c.Broadcaster(cepheus.SchemeChain, members, len(members))
	o.spans.end(id)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("chain broadcaster: %w", err)
	}
	return newBcasts(c, []amcast.Broadcaster{b}, [][]int{members}, chainBytes), nil
}

func buildGroups(w *workload, seed int64, o setupOpts, t *tally) (*instance, error) {
	c := newCluster(w, seed, o)
	perm := rand.New(rand.NewSource(seed)).Perm(c.Hosts())
	bs := make([]amcast.Broadcaster, groupsCount)
	members := make([][]int, groupsCount)
	for i := range bs {
		members[i] = perm[i*groupsMembers : (i+1)*groupsMembers]
		g, err := register(c, members[i], o, t)
		if err != nil {
			c.Close()
			return nil, err
		}
		bs[i] = &amcast.Cepheus{Group: g}
	}
	return newBcasts(c, bs, members, groupsBytes), nil
}

// bcasts is a closed loop of broadcasts over fixed groups taken
// round-robin: op i is one RunBcastErr on group i mod len(bs), rooted at
// the group's member 0.
type bcasts struct {
	c       *cepheus.Cluster
	bs      []amcast.Broadcaster
	members [][]int
	size    int

	want     []sim.Time // each group's simulated JCT, set by its first op after the warm round
	unstable map[int]bool
	seq      []sim.Time // every op's simulated JCT, in op order
	jctsUs   []float64  // every op's simulated JCT after the warm round
	rxBits   float64    // payload bits delivered, over
	simNs    float64    // the summed simulated JCTs
	before   []uint64   // scratch: receivers' goodput before the op
}

func newBcasts(c *cepheus.Cluster, bs []amcast.Broadcaster, members [][]int, size int) *instance {
	b := &bcasts{c: c, bs: bs, members: members, size: size,
		want: make([]sim.Time, len(bs)), unstable: map[int]bool{}, before: make([]uint64, len(members[0]))}
	return &instance{c: c, groups: len(bs), op: b.op, sim: b.sim, sampleOps: b.sampleOps,
		seq: func() []sim.Time { return b.seq }}
}

// rxBytes is the in-order payload a host's QPs have accepted.
func rxBytes(r *roce.RNIC) uint64 {
	var n uint64
	r.EachQP(func(q *roce.QP) { n += q.GoodputBytes })
	return n
}

func (b *bcasts) op(i int, t *tally) {
	g := i % len(b.bs)
	b.mark(g)
	jct, err := b.c.RunBcastErr(b.bs[g], 0, b.size)
	if err != nil {
		t.fail(1, "op %d: %v", i, err)
		return
	}
	b.check(i, g, jct, t)
}

// mark records group g's receivers' goodput before an op.
func (b *bcasts) mark(g int) {
	for j, h := range b.members[g][1:] {
		b.before[j] = rxBytes(b.c.RNICs[h])
	}
}

// check verifies op i on group g (i < 0: a sampled op): every receiver's
// goodput advanced by exactly the op size, and the simulated JCT equals the
// group's first after the warm round (ops 0 to len(bs)-1), whose cold
// broadcasts may take longer. Under the partitioned coordinator a repeated
// broadcast's JCT can depend on where the previous op left the LP clocks,
// so there a differing JCT marks the group unstable instead of failing the
// op, and determinism is checked on the op sequence across runs instead.
func (b *bcasts) check(i, g int, jct sim.Time, t *tally) {
	rx := b.members[g][1:]
	for j, h := range rx {
		if got := rxBytes(b.c.RNICs[h]) - b.before[j]; got != uint64(b.size) {
			t.fail(1, "op %d: host %d accepted %d bytes, want %d", i, h, got, b.size)
			return
		}
	}
	if i >= 0 {
		b.seq = append(b.seq, jct)
	}
	if i >= 0 && i < len(b.bs) {
		t.ok(1)
		return
	}
	switch {
	case b.want[g] == 0:
		b.want[g] = jct
	case jct != b.want[g] && b.c.Par != nil:
		b.unstable[g] = true
	case jct != b.want[g]:
		t.fail(1, "op %d: group %d simulated JCT %v differs from its first timed op's %v", i, g, jct, b.want[g])
		return
	}
	b.jctsUs = append(b.jctsUs, float64(jct)/1e3)
	b.rxBits += float64(8 * b.size * len(rx))
	b.simNs += float64(jct)
	t.ok(1)
}

func (b *bcasts) sim() simMetrics {
	lat := b.c.MessageLatency()
	return simMetrics{
		JCTus:       median(b.jctsUs),
		MsgP50us:    float64(lat.P50) / 1e3,
		MsgP99us:    float64(lat.P99) / 1e3,
		GoodputGbps: ratio(b.rxBits, b.simNs),
		Unstable:    len(b.unstable),
	}
}

// sampleOps drives one broadcast per group in steps of 1/128 of the
// group's JCT, sampling the pending-event count after each step.
func (b *bcasts) sampleOps(t *tally) []float64 {
	var depth []float64
	for g := range b.bs {
		step := max(b.want[g]/128, 1)
		b.mark(g)
		c := b.c
		at, done := now(c), sim.Time(-1)
		start := at
		var times []sim.Time
		if c.Par != nil {
			cb, ok := b.bs[g].(*amcast.Cepheus)
			if !ok {
				t.fail(1, "sampled op: %s cannot run partitioned", b.bs[g].Name())
				return depth
			}
			// JCT starts at the source LP's clock, as RunBcastErr measures it.
			start = cb.Group.Members[0].Host.Engine().Now()
			times = make([]sim.Time, len(b.members[g]))
			cb.BcastRecord(0, b.size, times)
		} else {
			b.bs[g].Bcast(0, b.size, func() { done = c.Eng.Now() })
		}
		for done < 0 && at-start < cepheus.BcastTimeout {
			at += step
			if c.Par != nil {
				c.Par.RunUntil(at)
				done = latest(times)
			} else {
				c.Eng.RunUntil(at)
			}
			depth = append(depth, float64(pending(c)))
		}
		if done < 0 {
			t.fail(1, "sampled op on group %d did not complete", g)
			return depth
		}
		b.check(-1, g, done-start, t)
	}
	return depth
}

// latest returns the last of the per-member completion times, or -1 while
// any member is still waiting.
func latest(times []sim.Time) sim.Time {
	end := sim.Time(0)
	for _, x := range times {
		if x < 0 {
			return -1
		}
		end = max(end, x)
	}
	return end
}

func now(c *cepheus.Cluster) sim.Time {
	if c.Par != nil {
		return c.Par.Now()
	}
	return c.Eng.Now()
}

// lossy streams messages from every group's source for o.stream of
// simulated time, then drains; op i advances the simulation by one slice.
type lossy struct {
	c      *cepheus.Cluster
	base   sim.Time
	stream sim.Time
	window int

	src    []*roce.QP
	rx     [][]int // receivers' host indices, per group
	posted []int
	got    [][]int // messages delivered, per group and receiver

	jctsUs []float64 // post-to-completion time of every message
	last   sim.Time  // latest delivery
}

func buildLossy(w *workload, seed int64, o setupOpts, t *tally) (*instance, error) {
	c := newCluster(w, seed, o)
	rng := rand.New(rand.NewSource(seed))
	perPod := w.k * w.k / 4
	pods := make([][]int, w.k)
	for p := range pods {
		pods[p] = rng.Perm(perPod)
	}
	l := &lossy{c: c, stream: o.stream, window: int((o.stream + lossyDrain) / lossySlice),
		posted: make([]int, lossyGroups)}
	for g := 0; g < lossyGroups; g++ {
		// One member per pod; the source sits in pod g mod k and every
		// host belongs to exactly one group.
		members := make([]int, lossyMembers)
		for i := range members {
			p := (g + i) % w.k
			members[i] = p*perPod + pods[p][g]
		}
		grp, err := register(c, members, o, t)
		if err != nil {
			c.Close()
			return nil, err
		}
		got := make([]int, lossyMembers-1)
		for j, m := range grp.Members[1:] {
			j := j
			m.QP.OnMessage = func(roce.Message) {
				got[j]++
				l.last = max(l.last, c.Eng.Now())
			}
		}
		l.src = append(l.src, grp.Members[0].QP)
		l.rx = append(l.rx, members[1:])
		l.got = append(l.got, got)
	}
	c.SetLossRate(lossyRate)
	l.base = c.Eng.Now()
	for g := range l.src {
		l.post(g)
	}
	return &instance{c: c, groups: lossyGroups, op: l.op, window: l.window, sim: l.sim}, nil
}

// post sends group g's next message while the streaming phase lasts; each
// completion posts the next.
func (l *lossy) post(g int) {
	at := l.c.Eng.Now()
	if at >= l.base+l.stream {
		return
	}
	l.posted[g]++
	l.src[g].PostSend(lossyMsg, func() {
		l.jctsUs = append(l.jctsUs, float64(l.c.Eng.Now()-at)/1e3)
		l.post(g)
	})
}

func (l *lossy) op(i int, t *tally) {
	l.c.Eng.RunUntil(l.base + sim.Time(i+1)*lossySlice)
	t.ok(1)
	if i == l.window-1 {
		l.check(t)
	}
}

// check books every posted message: failed unless every receiver accepted
// it, with its bytes, by the end of the drain.
func (l *lossy) check(t *tally) {
	for g, posted := range l.posted {
		missing := 0
		for j, h := range l.rx[g] {
			missing = max(missing, posted-l.got[g][j])
			if got, want := rxBytes(l.c.RNICs[h]), uint64(l.got[g][j]*lossyMsg); got != want {
				t.fail(1, "group %d: host %d accepted %d bytes for %d messages", g, h, got, l.got[g][j])
			}
		}
		if missing > 0 {
			t.fail(missing, "group %d: %d of %d messages not delivered to every receiver by the end of the drain", g, missing, posted)
		}
		t.ok(posted - missing)
	}
}

func (l *lossy) sim() simMetrics {
	lat := l.c.MessageLatency()
	var bits float64
	for g := range l.rx {
		for _, h := range l.rx[g] {
			bits += 8 * float64(rxBytes(l.c.RNICs[h]))
		}
	}
	return simMetrics{
		JCTus:       median(l.jctsUs),
		MsgP50us:    float64(lat.P50) / 1e3,
		MsgP99us:    float64(lat.P99) / 1e3,
		GoodputGbps: ratio(bits, float64(l.last-l.base)),
	}
}
