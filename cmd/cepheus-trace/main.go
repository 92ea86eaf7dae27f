// cepheus-trace inspects flight-recorder traces exported by cepheus-bench
// -trace or faultsim -trace (JSONL, one event per line).
//
// Usage:
//
//	cepheus-trace trace.jsonl                     # pcap-like listing
//	cepheus-trace -summary trace.jsonl            # per-device/kind census
//	cepheus-trace -kind DROP -reason qlimit t.jsonl
//	cepheus-trace -dev core-0 -from 2ms -to 5ms t.jsonl
//	cepheus-trace -group 1 t.jsonl                # events of multicast group 1
//	cepheus-trace -summary -diff b.jsonl a.jsonl  # census deltas a -> b, same filters
//
// Subcommands:
//
//	cepheus-trace spans [-group N] [-msg a.b.c.d#n] trace.jsonl
//	    reconstruct per-message causal spans: hop-by-hop latency, the
//	    replication tree, deliveries, retransmission epilogue, critical path
//	cepheus-trace timeline [-group N] [-msg a.b.c.d#n] [-width 96] t.jsonl
//	    fixed-width per-device lifelines over a time window
//	cepheus-trace diff [-json] a.jsonl b.jsonl
//	    census deltas between two runs; exits 1 when they differ (CI gate)
//	cepheus-trace pdes [-workers N] [-experiment pdes] [-json] prof.json
//	    render executor profiles written by cepheus-bench -pdesprof:
//	    per-worker phase breakdown, hottest LPs, heaviest cross-LP edges,
//	    and the scaling diagnosis
//	cepheus-trace groups [-json] [-slo spec] [-series] trace.jsonl
//	    per-multicast-group attribution rebuilt from the trace: delivered/
//	    dropped/retransmitted bytes, latency percentiles, fairness report
//	    (Jain's index, p99 isolation gap), optional SLO evaluation with a
//	    breach timeline (breaches exit 1, for CI gates)
//
// Exit status: 0 on success; 1 when a census diff finds a difference or a
// group breaches its SLO (for CI gates); 2 on any error — a bad flag value,
// or empty, truncated or corrupt input — with a one-line diagnosis on
// stderr, never an empty report.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

var (
	summary = flag.Bool("summary", false, "print a per-device/kind census instead of the listing")
	kind    = flag.String("kind", "", "keep only this event kind (ENQ, DEQ, DROP, ...)")
	reason  = flag.String("reason", "", "keep only this drop/fault reason (qlimit, loss, crash, ...)")
	dev     = flag.String("dev", "", "keep only this device (switch or host name)")
	dst     = flag.String("dst", "", "keep only this destination address (dotted quad)")
	group   = flag.Int("group", -1, "keep only this multicast group id (dst 224.0.0.<id>)")
	from    = flag.Duration("from", 0, "keep events at or after this virtual time")
	to      = flag.Duration("to", 0, "keep events at or before this virtual time (0: no bound)")
	diff    = flag.String("diff", "", "compare against this second trace: print census deltas, exit 1 if any")
)

// fatal diagnoses an error in one line and exits 2, so a pipeline that fed
// us garbage can tell "bad input" (2) apart from "real difference" (1).
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cepheus-trace: "+format+"\n", args...)
	os.Exit(2)
}

// trace is one decoded JSONL export.
type trace struct {
	path  string
	evs   []obs.Event
	names []string
}

func load(path string) *trace {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	evs, names, err := obs.ReadJSONL(f)
	if err != nil {
		fatal("%s: truncated or corrupt trace: %v", path, err)
	}
	if len(evs) == 0 {
		fatal("%s: empty trace (no events)", path)
	}
	return &trace{path: path, evs: evs, names: names}
}

// name renders a device id; it is the names function the obs renderers take.
func (t *trace) name(d uint32) string { return t.names[d] }

// parseMsg inverts obs.MsgString ("a.b.c.d#n").
func parseMsg(s string) (uint64, error) {
	i := strings.IndexByte(s, '#')
	if i < 0 {
		return 0, fmt.Errorf("bad message id %q (want origin#counter, e.g. 10.0.0.1#3)", s)
	}
	origin, ok := obs.ParseAddr(s[:i])
	if !ok {
		return 0, fmt.Errorf("bad origin address %q in message id", s[:i])
	}
	ctr, err := strconv.ParseUint(s[i+1:], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad counter in message id %q: %v", s, err)
	}
	return uint64(origin)<<32 | ctr, nil
}

// groupAddr maps a -group id to its multicast address (0: no selection).
func groupAddr(id int) uint32 {
	if id < 0 {
		return 0
	}
	return 0xE0000000 + uint32(id)
}

// selection is the listing/census filter, parsed once from the flags.
type selection struct {
	kind     obs.Kind
	anyKind  bool
	reason   obs.Reason // RNone: any
	dev      string
	dst      uint32
	anyDst   bool
	group    uint32 // 0: any
	from, to sim.Time
}

func parseSelection() selection {
	sel := selection{anyKind: true, anyDst: true, dev: *dev, group: groupAddr(*group),
		from: sim.Time(*from), to: sim.Time(*to)}
	var ok bool
	if *kind != "" {
		if sel.kind, ok = obs.KindByName(*kind); !ok {
			fatal("-kind: unknown event kind %q", *kind)
		}
		sel.anyKind = false
	}
	if *reason != "" {
		if sel.reason, ok = obs.ReasonByName(*reason); !ok {
			fatal("-reason: unknown drop reason %q", *reason)
		}
	}
	if *dst != "" {
		if sel.dst, ok = obs.ParseAddr(*dst); !ok {
			fatal("-dst: bad address %q (want a dotted quad)", *dst)
		}
		sel.anyDst = false
	}
	return sel
}

func (s *selection) keep(t *trace, e *obs.Event) bool {
	return (s.anyKind || e.Kind == s.kind) &&
		(s.reason == obs.RNone || e.Reason == s.reason) &&
		(s.dev == "" || t.names[e.Dev] == s.dev) &&
		(s.anyDst || e.Dst == s.dst) &&
		(s.group == 0 || e.Dst == s.group) &&
		(s.from <= 0 || e.At >= s.from) &&
		(s.to <= 0 || e.At <= s.to)
}

// apply filters t's events in place.
func (s *selection) apply(t *trace) *trace {
	out := t.evs[:0]
	for i := range t.evs {
		if s.keep(t, &t.evs[i]) {
			out = append(out, t.evs[i])
		}
	}
	t.evs = out
	return t
}

// census keys events by device/kind (plus the reason for drops, where the
// reason is the interesting part).
func census(t *trace) map[string]int {
	m := make(map[string]int)
	for i := range t.evs {
		e := &t.evs[i]
		k := t.names[e.Dev] + " " + e.Kind.String()
		if e.Reason != obs.RNone {
			k += "[" + e.Reason.String() + "]"
		}
		m[k]++
	}
	return m
}

func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func printCensus(t *trace) {
	m := census(t)
	for _, k := range sortedKeys(m) {
		fmt.Printf("%8d  %s\n", m[k], k)
	}
	var lo, hi sim.Time
	if len(t.evs) > 0 {
		lo, hi = t.evs[0].At, t.evs[0].At
		for i := range t.evs {
			lo, hi = min(lo, t.evs[i].At), max(hi, t.evs[i].At)
		}
	}
	fmt.Printf("%8d  total over %v..%v\n", len(t.evs), time.Duration(lo), time.Duration(hi))
}

// censusDelta is one diverging census row, also the -json element schema.
type censusDelta struct {
	Key   string `json:"key"`
	A     int    `json:"a"`
	B     int    `json:"b"`
	Delta int    `json:"delta"`
}

// diffCensus prints the census deltas from a to b, as text or JSON, and
// exits 1 if there are any: the one rule both diff forms gate CI on.
func diffCensus(a, b *trace, jsonOut bool) {
	ca, cb := census(a), census(b)
	for k := range cb {
		if _, ok := ca[k]; !ok {
			ca[k] = 0
		}
	}
	var ds []censusDelta
	for _, k := range sortedKeys(ca) {
		if ca[k] != cb[k] {
			ds = append(ds, censusDelta{Key: k, A: ca[k], B: cb[k], Delta: cb[k] - ca[k]})
		}
	}
	if jsonOut {
		out := struct {
			A       string        `json:"a"`
			B       string        `json:"b"`
			EventsA int           `json:"events_a"`
			EventsB int           `json:"events_b"`
			Equal   bool          `json:"equal"`
			Changed []censusDelta `json:"changed"`
		}{a.path, b.path, len(a.evs), len(b.evs), len(ds) == 0, ds}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal("%v", err)
		}
	} else {
		for _, d := range ds {
			fmt.Printf("%8d -> %-8d %+-8d %s\n", d.A, d.B, d.Delta, d.Key)
		}
		if len(ds) == 0 {
			fmt.Printf("no census differences (%d events in %s, %d in %s)\n", len(a.evs), a.path, len(b.evs), b.path)
		}
	}
	if len(ds) != 0 {
		os.Exit(1)
	}
}

func printListing(t *trace) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i := range t.evs {
		e := &t.evs[i]
		fmt.Fprintf(w, "%-14v %-12s %-11s", time.Duration(e.At), t.names[e.Dev], e.Kind)
		if e.Reason != obs.RNone {
			fmt.Fprintf(w, " [%s]", e.Reason)
		}
		if e.Port >= 0 {
			fmt.Fprintf(w, " port=%d", e.Port)
		}
		fmt.Fprintf(w, " %s %s > %s psn=%d", obs.PktTypeName(e.PT), obs.AddrString(e.Src), obs.AddrString(e.Dst), e.PSN)
		if e.Msg != 0 {
			fmt.Fprintf(w, " msg=%s", obs.MsgString(e.Msg))
		}
		fmt.Fprintf(w, " a=%d b=%d\n", e.A, e.B)
	}
}

// filterEvents applies the span/timeline selection (message, group, window)
// to decoded events. Epilogue events carry the group address only in Src/Dst
// asymmetrically, so group selection keys on the message's span membership:
// any event whose Msg matched survives regardless of its own addresses.
func filterEvents(evs []obs.Event, msg uint64, groupAddr uint32, from, to sim.Time) []obs.Event {
	if msg == 0 && groupAddr == 0 && from == 0 && to == 0 {
		return evs
	}
	// Pass 1: which messages touch the group address?
	inGroup := make(map[uint64]bool)
	if groupAddr != 0 {
		for i := range evs {
			if evs[i].Msg != 0 && evs[i].Dst == groupAddr {
				inGroup[evs[i].Msg] = true
			}
		}
	}
	out := evs[:0]
	for i := range evs {
		e := &evs[i]
		if msg != 0 && e.Msg != msg {
			continue
		}
		if groupAddr != 0 && !(e.Dst == groupAddr || (e.Msg != 0 && inGroup[e.Msg])) {
			continue
		}
		if from > 0 && e.At < from {
			continue
		}
		if to > 0 && e.At > to {
			continue
		}
		out = append(out, *e)
	}
	return out
}

// parseMsgFlag parses a -msg value (empty: no selection).
func parseMsgFlag(s string) uint64 {
	if s == "" {
		return 0
	}
	msg, err := parseMsg(s)
	if err != nil {
		fatal("-msg: %v", err)
	}
	return msg
}

func cmdSpans(args []string) {
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	msgF := fs.String("msg", "", "only this message (origin#counter, e.g. 10.0.0.1#3)")
	groupF := fs.Int("group", -1, "only messages of this multicast group id")
	fromF := fs.Duration("from", 0, "only events at or after this virtual time")
	toF := fs.Duration("to", 0, "only events at or before this virtual time (0: no bound)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cepheus-trace spans [flags] trace.jsonl")
		fs.PrintDefaults()
		os.Exit(2)
	}
	msg := parseMsgFlag(*msgF)
	t := load(fs.Arg(0))
	evs := filterEvents(t.evs, msg, groupAddr(*groupF), sim.Time(*fromF), sim.Time(*toF))
	spans := obs.BuildSpans(evs)
	if len(spans) == 0 {
		fatal("no spans (trace has no message-tagged events in the selection)")
	}
	if err := obs.WriteSpans(os.Stdout, spans, t.name); err != nil {
		fatal("%v", err)
	}
}

func cmdTimeline(args []string) {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	msgF := fs.String("msg", "", "only this message (origin#counter)")
	groupF := fs.Int("group", -1, "only events addressed to this multicast group id")
	fromF := fs.Duration("from", 0, "window start")
	toF := fs.Duration("to", 0, "window end (0: last event)")
	widthF := fs.Int("width", 0, "lifeline width in columns (0: 96)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cepheus-trace timeline [flags] trace.jsonl")
		fs.PrintDefaults()
		os.Exit(2)
	}
	opt := obs.TimelineOptions{
		From:  sim.Time(*fromF),
		To:    sim.Time(*toF),
		Width: *widthF,
		Msg:   parseMsgFlag(*msgF),
		Group: groupAddr(*groupF),
	}
	t := load(fs.Arg(0))
	if err := obs.WriteTimeline(os.Stdout, t.evs, t.name, opt); err != nil {
		fatal("%v", err)
	}
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	jsonF := fs.Bool("json", false, "emit the deltas as JSON")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cepheus-trace diff [-json] a.jsonl b.jsonl")
		fs.PrintDefaults()
		os.Exit(2)
	}
	diffCensus(load(fs.Arg(0)), load(fs.Arg(1)), *jsonF)
}

// profEntry mirrors cepheus-bench's -pdesprof output element.
type profEntry struct {
	Experiment string          `json:"experiment"`
	Workers    int             `json:"workers"`
	Report     *obs.ExecReport `json:"report"`
}

func cmdPdes(args []string) {
	fs := flag.NewFlagSet("pdes", flag.ExitOnError)
	workersF := fs.Int("workers", 0, "only rows with this worker count (0: all)")
	expF := fs.String("experiment", "", "only rows of this experiment (pdes, scale1024)")
	jsonF := fs.Bool("json", false, "re-emit the selected reports as JSON instead of text")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cepheus-trace pdes [flags] prof.json")
		fs.PrintDefaults()
		os.Exit(2)
	}
	buf, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	if len(buf) == 0 {
		fatal("%s: empty profile file", fs.Arg(0))
	}
	var entries []profEntry
	if err := json.Unmarshal(buf, &entries); err != nil {
		fatal("%s: truncated or corrupt profile: %v", fs.Arg(0), err)
	}
	var keep []profEntry
	for _, e := range entries {
		if e.Report == nil {
			continue
		}
		if *workersF > 0 && e.Workers != *workersF {
			continue
		}
		if *expF != "" && e.Experiment != *expF {
			continue
		}
		keep = append(keep, e)
	}
	if len(keep) == 0 {
		fatal("%s: no executor profiles match the selection (%d entries in file)", fs.Arg(0), len(entries))
	}
	if *jsonF {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(keep); err != nil {
			fatal("%v", err)
		}
		return
	}
	for i, e := range keep {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("-- %s, workers=%d --\n", e.Experiment, e.Workers)
		if err := obs.WriteExecReport(os.Stdout, e.Report); err != nil {
			fatal("%v", err)
		}
	}
}

// cmdGroups rebuilds per-group attribution from the trace: the offline
// twin of Cluster.EnableGroupStats, so any existing JSONL export can answer
// "who got what" and "did anyone breach" after the fact.
func cmdGroups(args []string) {
	fs := flag.NewFlagSet("groups", flag.ExitOnError)
	jsonF := fs.Bool("json", false, "emit reports + fairness (+ SLO results) as JSON")
	bucketF := fs.Duration("bucket", 0, "goodput time-series bucket (0: 100us)")
	sloF := fs.String("slo", "", "evaluate objectives against every group: p99=<dur>,goodput=<B/s>,drops=<frac>[,window=<dur>]")
	seriesF := fs.Bool("series", false, "append each group's goodput time-series to the text output")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cepheus-trace groups [flags] trace.jsonl")
		fs.PrintDefaults()
		os.Exit(2)
	}
	var obj obs.SLOObjective
	var win obs.SLOWindows
	var objFor func(uint32) (obs.SLOObjective, bool)
	if *sloF != "" {
		var err error
		if obj, win, err = obs.ParseSLO(*sloF); err != nil {
			fatal("-slo: %v", err)
		}
		objFor = func(uint32) (obs.SLOObjective, bool) { return obj, true }
	}
	t := load(fs.Arg(0))
	reps := obs.GroupReportsFromEvents(t.evs, sim.Time(*bucketF), objFor)
	if len(reps) == 0 {
		fatal("%s: no multicast group traffic in trace (%d events)", t.path, len(t.evs))
	}
	var results []obs.SLOResult
	if objFor != nil {
		results = obs.EvalSLOs(reps, objFor, win)
	}
	breached := 0
	if *jsonF {
		for i := range results {
			if results[i].Breached() {
				breached++
			}
		}
		out := struct {
			Groups   []obs.GroupReport  `json:"groups"`
			Fairness obs.FairnessReport `json:"fairness"`
			SLO      []obs.SLOResult    `json:"slo,omitempty"`
		}{reps, obs.Fairness(reps), results}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal("%v", err)
		}
	} else {
		obs.WriteGroupTable(os.Stdout, reps)
		if *seriesF {
			for i := range reps {
				r := &reps[i]
				fmt.Printf("series g%d (bucket %v):\n", r.ID(), r.Bucket)
				for _, p := range r.Series {
					fmt.Printf("  %-12v bytes=%d msgs=%d slow=%d drops=%d retx=%d\n",
						p.Start, p.Bytes, p.Msgs, p.Slow, p.Drops, p.Retrans)
				}
			}
		}
		breached = obs.WriteSLOReport(os.Stdout, results)
	}
	if breached > 0 {
		os.Exit(1)
	}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "spans":
			cmdSpans(os.Args[2:])
			return
		case "timeline":
			cmdTimeline(os.Args[2:])
			return
		case "diff":
			cmdDiff(os.Args[2:])
			return
		case "pdes":
			cmdPdes(os.Args[2:])
			return
		case "groups":
			cmdGroups(os.Args[2:])
			return
		}
	}
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cepheus-trace [flags] trace.jsonl")
		fmt.Fprintln(os.Stderr, "       cepheus-trace spans|timeline|diff|pdes|groups -h")
		flag.PrintDefaults()
		os.Exit(2)
	}
	sel := parseSelection()
	t := sel.apply(load(flag.Arg(0)))
	switch {
	case *diff != "":
		diffCensus(t, sel.apply(load(*diff)), false)
	case *summary:
		printCensus(t)
	default:
		printListing(t)
	}
}
