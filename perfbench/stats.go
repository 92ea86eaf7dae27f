package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minTail is how many samples must lie above a reported tail percentile for
// it to mean anything; fewer is flagged in the human-readable report.
const minTail = 10

// pctl is a nearest-rank percentile of a sample set, with the sample count
// and how many samples lie strictly above it.
type pctl struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
// xs is left unmodified. An empty set yields the zero pctl.
func percentile(xs []float64, p float64) pctl {
	if len(xs) == 0 {
		return pctl{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	v := s[rank-1]
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return pctl{Value: v, N: len(s), Beyond: beyond}
}

// median is percentile 50's value.
func median(xs []float64) float64 { return percentile(xs, 50).Value }

// chunked summarizes per-op host times chunk by chunk: each value is the
// median, over chunks, of that chunk's statistic, so a burst of interference
// from other work on the host that slows a few chunks does not move it.
type chunked struct {
	Rate      float64 // ops per second of busy time
	P50, P95  float64 // op time percentiles
	Chunks    int
	Ops       int // ops inside chunks
	MinBeyond int // fewest samples beyond a chunk's p95
}

// chunkStats splits opMs at ends — ends[i] is the exclusive end of chunk i —
// and summarizes the chunks. Ops after the last end belong to no chunk.
func chunkStats(opMs []float64, ends []int) chunked {
	var rate, p50, p95 []float64
	out := chunked{MinBeyond: -1}
	from := 0
	for _, to := range ends {
		c := opMs[from:to]
		from = to
		if len(c) == 0 {
			continue
		}
		sum := 0.0
		for _, x := range c {
			sum += x
		}
		hi := percentile(c, 95)
		rate = append(rate, 1e3*float64(len(c))/sum)
		p50 = append(p50, percentile(c, 50).Value)
		p95 = append(p95, hi.Value)
		out.Ops += len(c)
		if out.MinBeyond < 0 || hi.Beyond < out.MinBeyond {
			out.MinBeyond = hi.Beyond
		}
	}
	out.Chunks = len(rate)
	out.Rate, out.P50, out.P95 = median(rate), median(p50), median(p95)
	return out
}

// tally counts what a run attempted and what failed: registrations, ops,
// streamed messages and the run-level checks (audit, neutrality, repeat).
type tally struct {
	attempted, failed int
	errs              []string
}

// ok books n successful attempts.
func (t *tally) ok(n int) { t.attempted += n }

// fail books n failed attempts with the reason.
func (t *tally) fail(n int, format string, args ...any) {
	t.attempted += n
	t.failed += n
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// ratio is fail_ratio: failed over attempted, 0 when nothing was attempted.
func (t *tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the run started; Parent is -1 for a root span and Op is
// -1 outside ops.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children, indexed like spans. Overlapping children are
// counted once and clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// pkgOf returns the Go package path of a symbol as the runtime names it,
// e.g. "repro/internal/sim" for "repro/internal/sim.(*Engine).Step".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other packages' paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a package path to the layer it belongs to: the module's own
// packages by name ("repro" is the cepheus API), the benchmark itself, the
// Go runtime, and "other" for the rest of the standard library.
func layerOf(pkg string) string {
	switch {
	case pkg == "repro":
		return "cepheus"
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.SplitN(strings.TrimPrefix(pkg, "repro/internal/"), "/", 2)[0]
	case pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// profSample is one CPU-profile sample reduced to its leaf function and its
// weight (CPU nanoseconds).
type profSample struct {
	Leaf   string
	Weight int64
}

// layerShares buckets samples by the layer of their leaf function — the flat
// (self) attribution — and returns each layer's percentage of the total
// weight. The shares sum to 100 for a non-empty profile, 0 otherwise.
func layerShares(samples []profSample) map[string]float64 {
	var total int64
	byLayer := make(map[string]int64)
	for _, s := range samples {
		byLayer[layerOf(pkgOf(s.Leaf))] += s.Weight
		total += s.Weight
	}
	shares := make(map[string]float64, len(byLayer))
	if total == 0 {
		return shares
	}
	for l, w := range byLayer {
		shares[l] = 100 * float64(w) / float64(total)
	}
	return shares
}

// ratio divides, reading 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
