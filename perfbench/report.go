package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one named result.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricList []metric

func (l metricList) byName() map[string]any {
	m := make(map[string]any, len(l))
	for _, x := range l {
		m[x.Name] = map[string]any{"value": x.Value, "unit": x.Unit}
	}
	return m
}

// endToEnd derives the metrics a user of the simulator sees, plus notes
// giving the sample count behind each timing. Op times are summarized per
// chunk of the run (see chunkStats) and the medians over chunks reported.
func endToEnd(ph *phase) (metricList, map[string]string) {
	ops := float64(len(ph.opMs))
	ch := chunkStats(ph.opMs, ph.ends)
	all := percentile(ph.opMs, 95)
	per := fmt.Sprintf("median over %d chunks (%d ops)", ch.Chunks, ch.Ops)
	notes := map[string]string{
		"setup_s":        fmt.Sprintf("median of %d set-ups", len(ph.setupS)),
		"ops_per_s":      per,
		"op_wall_ms_p50": per,
		"op_wall_ms_p95": fmt.Sprintf("%s, >=%d beyond in each; over all ops p95=%.4g with %d beyond", per, ch.MinBeyond, all.Value, all.Beyond),
	}
	if all.Beyond < minTail {
		notes["op_wall_ms_p95"] += fmt.Sprintf(" (fewer than %d: unreliable)", minTail)
	}
	return metricList{
		{"setup_s", median(ph.setupS), "s"},
		{"ops_per_s", ch.Rate, "1/s"},
		{"op_wall_ms_p50", ch.P50, "ms"},
		{"op_wall_ms_p95", ch.P95, "ms"},
		{"allocs_per_op", float64(ph.mallocs) / ops, "count"},
		{"heap_mb", ph.heapMB, "MB"},
	}, notes
}

// simResults are the simulated-time results of the fingerprint ops. They
// are exact for a seed, so they are printed and recorded but not gated: a
// gate on their spread across seeds would measure the seeds, not the host.
func simResults(fp fingerprint) metricList {
	s := fp.Sim
	return metricList{
		{"sim_jct_us", s.JCTus, "us"},
		{"sim_msg_p50_us", s.MsgP50us, "us"},
		{"sim_msg_p99_us", s.MsgP99us, "us"},
		{"sim_goodput_gbps", s.GoodputGbps, "Gbps"},
	}
}

// perLayer derives the per-layer metrics: counts from the traced run's
// fingerprint (identical to the untraced one's), host costs per unit of
// work from the untraced run, self time from the traced run's spans and
// CPU profile.
func perLayer(plain, tr *phase, shares map[string]float64) metricList {
	fp := tr.fps[0]
	d, k := fp.Delta, float64(fp.Ops)
	per := func(i int) float64 { return float64(d[i]) / k }
	nsPerOp := float64(plain.busy.Nanoseconds()) / float64(len(plain.opMs))
	rate := func(ph *phase) float64 { return float64(len(ph.opMs)) / ph.busy.Seconds() }
	reg := tr.spans.durations("core.register")
	var regTotal float64
	for _, r := range reg {
		regTotal += r
	}
	var windows, cross, evPerWindow float64
	if e := tr.exec; e != nil {
		windows, cross, evPerWindow = float64(e.Windows)/k, float64(e.CrossMsgs)/k, e.EventsPerWindow
	}
	return metricList{
		{"topo.build_ms", tr.topo.buildMs, "ms"},
		{"topo.partition_ms", tr.topo.partitionMs, "ms"},
		{"topo.heap_mb", tr.topo.heapMB, "MB"},
		{"cepheus.build_ms", median(tr.spans.durations("cepheus.build")), "ms"},
		{"core.register_ms_p50", median(reg), "ms"},
		{"core.register_ms_total", ratio(regTotal, float64(len(tr.setupS))), "ms"},
		{"core.mrp_per_group", tr.mrp, "count"},
		{"core.replicated_per_op", per(cReplicated), "count"},
		{"core.ack_agg_ratio", ratio(float64(d[cAcksEmitted]), float64(d[cAcksIn])), "ratio"},
		{"core.nack_agg_ratio", ratio(float64(d[cNacksEmitted]), float64(d[cNacksIn])), "ratio"},
		{"core.retx_filtered_per_op", per(cRetxFiltered), "count"},
		{"core.cpu_pct", shares["core"], "%"},
		{"roce.data_sent_per_op", per(cDataSent), "count"},
		{"roce.retx_ratio", ratio(float64(d[cRetransmits]), float64(d[cDataSent])), "ratio"},
		{"roce.nacks_sent", float64(d[cNacksSent]), "count"},
		{"roce.timeouts", float64(d[cTimeouts]), "count"},
		{"roce.go_back_n", float64(d[cGoBackN]), "count"},
		{"roce.acks_sent_per_op", per(cAcksSent), "count"},
		{"roce.cpu_pct", shares["roce"], "%"},
		{"simnet.tx_packets_per_op", per(cTxPackets), "count"},
		{"simnet.ns_per_packet", ratio(nsPerOp, per(cTxPackets)), "ns"},
		{"simnet.queue_max_bytes", float64(fp.Queue.Max), "bytes"},
		{"simnet.queue_p99_bytes", float64(fp.Queue.P99), "bytes"},
		{"simnet.ecn_marks", float64(d[cECNMarks]), "count"},
		{"simnet.pfc_pauses", float64(d[cPauses]), "count"},
		{"simnet.drops_per_op", per(cDrops), "count"},
		{"simnet.cpu_pct", shares["simnet"], "%"},
		{"sim.events_per_op", per(cEvents), "count"},
		{"sim.ns_per_event", ratio(nsPerOp, per(cEvents)), "ns"},
		{"sim.pending_p50", median(tr.pending), "count"},
		{"sim.unstable_jct_groups", float64(fp.Sim.Unstable), "count"},
		{"sim.windows_per_op", windows, "count"},
		{"sim.cross_msgs_per_op", cross, "count"},
		{"sim.events_per_window", evPerWindow, "count"},
		{"sim.cpu_pct", shares["sim"], "%"},
		{"amcast.cpu_pct", shares["amcast"], "%"},
		{"obs.cpu_pct", shares["obs"], "%"},
		{"runtime.gc_pct", tr.gcPct, "%"},
		{"trace.overhead_pct", 100 * (1 - ratio(rate(tr), rate(plain))), "%"},
	}
}

// meta is the provenance every result carries.
type meta struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        int     `json:"trace"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
}

func (m meta) String() string {
	return fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d num_cpu=%d go=%s commit=%s source_sha256=%.16s",
		m.Workload, m.Seed, m.Seconds, m.Trace, m.GOMAXPROCS, m.NumCPU, m.GoVersion, m.Commit, m.SourceSHA256)
}

func provenance(w *workload, seed int64, seconds float64, trace int) meta {
	return meta{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: vcsRevision(), SourceSHA256: sourceDigest(".")}
}

// vcsRevision is the git commit the binary was built from, "unknown" when
// the sources were not a git checkout.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "-dirty"
		}
	}
	return rev + dirty
}

// sourceDigest hashes every Go source and go.mod file under root (skipping
// hidden directories), identifying the code measured even where there is
// no git history.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// report is the full record of one invocation, written as JSON next to the
// span file so runs can be diffed.
type report struct {
	Meta        meta               `json:"meta"`
	Metrics     metricList         `json:"metrics"`
	Notes       map[string]string  `json:"notes,omitempty"`
	Sim         metricList         `json:"simulated"`
	SimOps      int                `json:"simulated_ops"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailRatio   float64            `json:"fail_ratio"`
	Errors      []string           `json:"errors"`
	SpanSelfMs  []nameMs           `json:"span_self_ms,omitempty"`
	CPUShares   map[string]float64 `json:"cpu_pct_by_layer,omitempty"`
	SpanFile    string             `json:"span_file,omitempty"`
	ProfileFile string             `json:"cpu_profile,omitempty"`
}

// print renders the report as a table.
func (r *report) print(w io.Writer) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-26s %14.6g %-9s %s\n", m.Name, m.Value, m.Unit, r.Notes[m.Name])
	}
	fmt.Fprintf(w, "%-26s %14.6g %-9s %d failed of %d attempted\n", "fail_ratio", r.FailRatio, "ratio", r.Failed, r.Attempted)
	for _, m := range r.Sim {
		fmt.Fprintf(w, "%-26s %14.6g %-9s simulated, over %d ops; exact for the seed\n", m.Name, m.Value, m.Unit, r.SimOps)
	}
	if len(r.SpanSelfMs) > 0 {
		fmt.Fprintf(w, "self time by span (ms):")
		for _, s := range r.SpanSelfMs {
			fmt.Fprintf(w, " %s=%.1f", s.Name, s.Ms)
		}
		fmt.Fprintln(w)
	}
	if len(r.CPUShares) > 0 {
		layers := make([]string, 0, len(r.CPUShares))
		for l := range r.CPUShares {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Fprintf(w, "cpu %% by layer (flat):")
		for _, l := range layers {
			fmt.Fprintf(w, " %s=%.1f", l, r.CPUShares[l])
		}
		fmt.Fprintln(w)
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "spans: %s  cpu profile: %s (go tool pprof -top)\n", r.SpanFile, r.ProfileFile)
	}
}

func writeJSON(path string, v any) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
