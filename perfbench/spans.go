package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanRec keeps the traced run's spans in memory until the run ends. A nil
// *spanRec records nothing, so the untraced run pays one nil check per call.
type spanRec struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices; the top is the next parent
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (r *spanRec) begin(name string, op int) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *spanRec) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// durations returns the durations, in milliseconds, of every span named name.
func (r *spanRec) durations(name string) []float64 {
	var ds []float64
	for _, s := range r.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return ds
}

// selfByName sums self time per span name, in milliseconds, sorted by name.
func (r *spanRec) selfByName() []nameMs {
	self := selfTimes(r.spans)
	sum := map[string]int64{}
	for i, s := range r.spans {
		sum[s.Name] += self[i]
	}
	out := make([]nameMs, 0, len(sum))
	for n, ns := range sum {
		out = append(out, nameMs{n, float64(ns) / 1e6})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

type nameMs struct {
	Name string  `json:"name"`
	Ms   float64 `json:"self_ms"`
}

// write stores the spans as JSON lines.
func (r *spanRec) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
