package obs_test

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"

	cepheus "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// recordedTrace is the JSONL export of one traced 4 KiB Cepheus broadcast
// to the four testbed hosts.
func recordedTrace(tb testing.TB) []byte {
	tb.Helper()
	core.ResetMcstIDs()
	c := cepheus.NewTestbed(4, cepheus.Options{Seed: 1})
	defer c.Close()
	c.EnableTrace(0)
	b, err := c.Broadcaster(cepheus.SchemeCepheus, []int{0, 1, 2, 3}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.RunBcastErr(b, 0, 4<<10); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// writeJSONL re-exports decoded events through a recorder that knows the
// decoded device names.
func writeJSONL(tb testing.TB, evs []obs.Event, names []string) []byte {
	tb.Helper()
	rec := obs.NewRecorder(1, 0)
	for _, n := range names {
		rec.NewTracer(n, 0)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf, evs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestJSONLRoundTrip(t *testing.T) {
	trace := recordedTrace(t)
	evs, names, err := obs.ReadJSONL(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || len(names) != 5 {
		t.Fatalf("decoded %d events on %d devices, want a traced testbed", len(evs), len(names))
	}
	if again := writeJSONL(t, evs, names); !bytes.Equal(again, trace) {
		t.Fatalf("WriteJSONL(ReadJSONL(trace)) differs from trace:\n got %.400s\nwant %.400s", again, trace)
	}
}

func TestReadJSONLRejects(t *testing.T) {
	good := `{"t":1500,"dev":"s3","port":2,"kind":"DROP","reason":"qlimit","pt":"DATA","src":"10.0.0.1","dst":"224.0.0.3","sqp":3,"dqp":1,"psn":42,"msg":7,"a":81920,"b":1064}`
	if _, _, err := obs.ReadJSONL(strings.NewReader(good + "\n\n" + good)); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	for _, bad := range []string{
		good[:len(good)-5],
		strings.Replace(good, `"port":2`, `"port":40000`, 1),
		strings.Replace(good, `"port":2`, `"port":-32769`, 1),
		strings.Replace(good, `"kind":"DROP"`, `"kind":"NOPE"`, 1),
		strings.Replace(good, `"reason":"qlimit"`, `"reason":"bogus"`, 1),
		strings.Replace(good, `"pt":"DATA"`, `"pt":"PT(12)"`, 1),
		strings.Replace(good, `"src":"10.0.0.1"`, `"src":"10.0.1"`, 1),
		strings.Replace(good, `"dst":"224.0.0.3"`, `"dst":"224.0.0.256"`, 1),
		strings.Replace(good, `"dev":"s3"`, `"dev":"sé"`, 1),
		strings.Replace(good, `"dev":"s3"`, `"dev":"s\u0007"`, 1),
		strings.Replace(good, `"sqp":3`, `"sqp":4294967296`, 1),
		strings.Replace(good, `"t":1500`, `"t":1.5`, 1),
		`[]`,
		`null`,
	} {
		if _, _, err := obs.ReadJSONL(strings.NewReader(good + "\n" + bad + "\n")); err == nil {
			t.Errorf("accepted %s", bad)
		} else if !strings.HasPrefix(err.Error(), "line 2: ") {
			t.Errorf("error %q does not name line 2", err)
		}
	}
}

// FuzzReadJSONL checks the trace reader never panics and that whatever it
// accepts survives a WriteJSONL -> ReadJSONL round trip unchanged.
func FuzzReadJSONL(f *testing.F) {
	lines := bytes.SplitAfter(recordedTrace(f), []byte("\n"))
	head := bytes.Join(lines[:8], nil)
	f.Add(head)
	f.Add(lines[len(lines)/2])
	f.Add(head[:len(head)/2])                                                              // truncated mid-line
	f.Add(regexp.MustCompile(`"port":-?\d+`).ReplaceAll(lines[0], []byte(`"port":40000`))) // port out of range
	f.Add(bytes.Replace(lines[0], []byte(`"kind":"`), []byte(`"kind":"X`), 1))             // unknown kind
	f.Add(bytes.Replace(lines[0], []byte(`"dev":"`), []byte(`"dev":"ÿ`), 1))               // non-ASCII device
	f.Add([]byte("{\"t\":1}\n\n{not json"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		evs, names, err := obs.ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		evs2, names2, err := obs.ReadJSONL(bytes.NewReader(writeJSONL(t, evs, names)))
		if err != nil {
			t.Fatalf("re-read of an accepted trace failed: %v", err)
		}
		if !slices.Equal(evs, evs2) || !slices.Equal(names, names2) {
			t.Fatalf("round trip changed the trace:\n got %+v %q\nwant %+v %q", evs2, names2, evs, names)
		}
	})
}
