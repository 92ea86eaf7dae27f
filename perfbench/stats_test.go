package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPercentileReportsSampleCounts(t *testing.T) {
	xs := make([]float64, 0, 200)
	for i := 200; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p            float64
		want         float64
		wantBeyond   int
		wantSmallSet bool
	}{
		{50, 100, 100, false},
		{95, 190, 10, false},
		{99, 198, 2, true},
		{100, 200, 0, true},
	} {
		got := percentile(xs, c.p)
		if got.Value != c.want || got.N != 200 || got.Beyond != c.wantBeyond {
			t.Errorf("p%v = %+v, want value %v, n 200, beyond %d", c.p, got, c.want, c.wantBeyond)
		}
		if (got.Beyond < minTail) != c.wantSmallSet {
			t.Errorf("p%v: beyond %d, flagged unreliable = %v", c.p, got.Beyond, got.Beyond < minTail)
		}
	}
	if xs[0] != 200 {
		t.Error("percentile reordered its input")
	}
	// Ties above the rank are not counted as beyond it.
	if got := percentile([]float64{1, 2, 2, 2}, 50); got.Value != 2 || got.Beyond != 0 {
		t.Errorf("ties: %+v", got)
	}
	if got := percentile(nil, 50); got != (pctl{}) {
		t.Errorf("empty: %+v", got)
	}
	if got := percentile([]float64{7}, 95); got.Value != 7 || got.N != 1 {
		t.Errorf("single: %+v", got)
	}
}

func TestPkgOfAndLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Step":                 "sim",
		"repro/internal/simnet.(*Port).armTx.func1":         "simnet",
		"repro.(*Cluster).RunBcastErr":                      "cepheus",
		"main.(*bcasts).op":                                 "bench",
		"runtime.mallocgc":                                  "runtime",
		"runtime/internal/atomic.Load":                      "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":      "runtime",
		"sort.Slice":                                        "other",
		"container/heap.Push":                               "other",
		"repro/internal/obs.Ring[go.shape.*repro/x.T].Push": "obs",
		"slices.SortFunc[go.shape.[]repro/internal/sim.T]":  "other",
	} {
		if got := layerOf(pkgOf(fn)); got != want {
			t.Errorf("layerOf(pkgOf(%q)) = %q (pkg %q), want %q", fn, got, pkgOf(fn), want)
		}
	}
}

func TestLayerSharesSumToAtMost100(t *testing.T) {
	samples := []profSample{
		{"repro/internal/sim.(*Engine).Step", 50},
		{"repro/internal/sim.(*heap).down", 10},
		{"repro/internal/core.(*Accel).replicate", 30},
		{"runtime.mallocgc", 7},
		{"?", 3},
	}
	shares := layerShares(samples)
	want := map[string]float64{"sim": 60, "core": 30, "runtime": 7, "other": 3}
	sum := 0.0
	for l, v := range shares {
		sum += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("%s = %v, want %v", l, v, want[l])
		}
	}
	if sum > 100+1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if len(layerShares(nil)) != 0 {
		t.Error("empty profile has shares")
	}
}

var spinSink uint64

// spin burns CPU for d so a CPU profile has samples in it.
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			spinSink = spinSink*31 + uint64(i)
		}
	}
}

func TestReadProfileBucketsARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	spun := false
	for _, s := range samples {
		spun = spun || strings.HasSuffix(s.Leaf, ".spin")
		if s.Weight <= 0 {
			t.Errorf("sample with weight %d", s.Weight)
		}
	}
	if !spun {
		t.Fatalf("no sample in spin among %d samples", len(samples))
	}
	sum := 0.0
	for _, v := range layerShares(samples) {
		sum += v
	}
	if sum > 100+1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := readProfile(buf.Bytes()[:len(buf.Bytes())/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestTallyFailRatio(t *testing.T) {
	var tl tally
	if tl.ratio() != 0 {
		t.Errorf("empty tally ratio %v", tl.ratio())
	}
	tl.ok(6)
	tl.fail(1, "op %d stalled", 3)
	tl.fail(3, "3 messages lost")
	if tl.attempted != 10 || tl.failed != 4 || tl.ratio() != 0.4 {
		t.Errorf("attempted %d failed %d ratio %v, want 10 4 0.4", tl.attempted, tl.failed, tl.ratio())
	}
	if len(tl.errs) != 2 || tl.errs[0] != "op 3 stalled" {
		t.Errorf("errors %q", tl.errs)
	}
	for i := 0; i < 20; i++ {
		tl.fail(1, "more")
	}
	if tl.failed != 24 || len(tl.errs) > 8 {
		t.Errorf("failed %d, %d messages kept", tl.failed, len(tl.errs))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "setup", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "cepheus.build", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "core.register", Start: 50, End: 70},
		{ID: 3, Parent: 0, Name: "overlap", Start: 60, End: 80}, // overlaps 2
		{ID: 4, Parent: 0, Name: "spill", Start: 90, End: 120},  // ends after its parent
		{ID: 5, Parent: 1, Name: "inner", Start: 20, End: 25},
		{ID: 6, Parent: -1, Name: "op", Start: 200, End: 250},
	}
	want := []int64{100 - 30 - 30 - 10, 30 - 5, 20, 20, 30, 5, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSpanRecNestsAndNilIsOff(t *testing.T) {
	r := newSpanRec()
	a := r.begin("setup", -1)
	b := r.begin("core.register", -1)
	r.end(b)
	c := r.begin("core.register", -1)
	r.end(c)
	r.end(a)
	d := r.begin("op", 0)
	r.end(d)
	if r.spans[b].Parent != a || r.spans[c].Parent != a || r.spans[d].Parent != -1 || r.spans[d].Op != 0 {
		t.Errorf("parents wrong: %+v", r.spans)
	}
	if n := len(r.durations("core.register")); n != 2 {
		t.Errorf("%d register spans", n)
	}
	var off *spanRec
	off.end(off.begin("op", 1)) // must not panic
}

func TestChunkStatsTakesMediansOverChunks(t *testing.T) {
	var ops []float64
	var ends []int
	for c := 0; c < 5; c++ {
		for i := 1; i <= 20; i++ {
			v := float64(i) // 1..20 ms
			if c == 4 {
				v *= 10 // one chunk slowed by interference
			}
			ops = append(ops, v)
		}
		ends = append(ends, len(ops))
	}
	ops = append(ops, 1e6) // after the last end: in no chunk
	got := chunkStats(ops, ends)
	want := chunked{Rate: 1e3 * 20 / 210, P50: 10, P95: 19, Chunks: 5, Ops: 100, MinBeyond: 1}
	if math.Abs(got.Rate-want.Rate) > 1e-9 || got.P50 != want.P50 || got.P95 != want.P95 ||
		got.Chunks != want.Chunks || got.Ops != want.Ops || got.MinBeyond != want.MinBeyond {
		t.Errorf("chunkStats = %+v, want %+v", got, want)
	}
	if got := chunkStats(ops, []int{0, 0}); got.Chunks != 0 || got.Rate != 0 {
		t.Errorf("empty chunks: %+v", got)
	}
}
