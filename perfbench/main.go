// Command perfbench is the repository benchmark. One invocation runs one
// named workload on the simulator, checks every op's outputs, and prints its
// metrics; the last line of standard output is a JSON object with keys
// correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload bcast1m-k8 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced. With
// --trace 1 it runs the workload twice, untraced then traced (spans around
// every call the benchmark makes into a layer, a CPU profile, executor
// telemetry), checks that both runs simulated exactly the same thing, and
// reports the per-layer metrics. Every run also makes a short untimed pass
// with the protocol auditor attached. Any failed op, audit violation or
// neutrality mismatch makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/sim"
)

// defaultSeed is the seed the benchmark was tuned on; heldOutSeed was kept
// out of tuning so later claims can be checked on data not used for them.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

func main() { os.Exit(run()) }

func run() int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed: drives the simulation and member placement (held-out seed: %d)", heldOutSeed))
	seconds := flag.Float64("seconds", 25, "how long the timed region runs, in host seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from an untraced and a traced run")
	out := flag.String("out", ".bench_build", "directory for the result record, span file and CPU profile")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	rep := report{Meta: provenance(w, *seed, *seconds, *trace), Errors: []string{}}
	fmt.Printf("# %s\n", rep.Meta)
	t := &tally{}
	budget := time.Duration(*seconds * float64(time.Second))
	audited, err := auditPass(w, *seed, t)
	if err != nil {
		t.fail(1, "audited pass: %v", err)
	}
	if *trace == 0 {
		var ph *phase
		if ph, err = runPhase(w, *seed, budget, false, t); err == nil {
			sameSeq(t, "audited and timed runs", audited, ph.seq)
			rep.Metrics, rep.Notes = endToEnd(ph)
			rep.Sim, rep.SimOps = simResults(ph.fps[0]), ph.fps[0].Ops
		}
	} else {
		err = traced(w, *seed, budget, *out, t, &rep, audited)
	}
	if err != nil {
		t.fail(1, "%v", err)
	}
	rep.Attempted, rep.Failed, rep.FailRatio = t.attempted, t.failed, t.ratio()
	rep.Errors = append(rep.Errors, t.errs...)
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", e)
	}
	rep.print(os.Stdout)
	path := filepath.Join(*out, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := writeJSON(path, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		t.failed++
	}

	last := map[string]any{"correct": t.failed == 0, "attempted": max(t.attempted, 1), "failed": t.failed, "metrics": rep.Metrics.byName()}
	line, _ := json.Marshal(last) // plain maps of numbers and strings always marshal
	fmt.Println(string(line))
	if t.failed > 0 {
		return 1
	}
	return 0
}

// traced runs the workload untraced and then traced for half the budget
// each, checks the two simulated identically, and fills rep with the
// per-layer metrics and the traced run's artifacts.
func traced(w *workload, seed int64, budget time.Duration, out string, t *tally, rep *report, audited []sim.Time) error {
	plain, err := runPhase(w, seed, budget/2, false, t)
	if err != nil {
		return err
	}
	tr, err := runPhase(w, seed, budget/2, true, t)
	if err != nil {
		return err
	}
	for j, fp := range tr.fps {
		want, ran := plain.fps[j]
		switch {
		case !ran:
		case fp != want:
			t.fail(1, "neutrality: traced run simulated window seed %d differently:\n  untraced %+v\n  traced   %+v", j, want, fp)
		default:
			t.ok(1)
		}
	}
	sameSeq(t, "audited and untraced runs", audited, plain.seq)
	sameSeq(t, "neutrality: untraced and traced runs", plain.seq, tr.seq)
	samples, err := readProfile(tr.prof)
	if err != nil {
		return err
	}
	shares := layerShares(samples)
	rep.Metrics = perLayer(plain, tr, shares)
	rep.Sim, rep.SimOps = simResults(tr.fps[0]), tr.fps[0].Ops
	rep.SpanSelfMs = tr.spans.selfByName()
	rep.CPUShares = shares
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", w.name, seed))
	rep.SpanFile, rep.ProfileFile = base+".spans.jsonl", base+".cpu.pprof"
	if err := tr.spans.write(rep.SpanFile); err != nil {
		return err
	}
	return os.WriteFile(rep.ProfileFile, tr.prof, 0o644)
}
