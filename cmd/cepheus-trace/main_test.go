package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	cepheus "repro"
	"repro/internal/core"
)

// runMainEnv makes the test binary act as cepheus-trace: run re-executes
// it with this variable set, so each case observes the real exit status.
const runMainEnv = "CEPHEUS_TRACE_RUN_MAIN"

var dir string // fixture traces, written once by TestMain

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	var err error
	if dir, err = os.MkdirTemp("", "cepheus-trace-test"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	err = writeFixtures()
	code := 2
	if err == nil {
		code = m.Run()
	} else {
		fmt.Fprintln(os.Stderr, err)
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// bcastTrace records one Cepheus broadcast of size bytes to the four
// testbed hosts as a JSONL trace.
func bcastTrace(size int) ([]byte, error) {
	core.ResetMcstIDs()
	c := cepheus.NewTestbed(4, cepheus.Options{Seed: 1})
	defer c.Close()
	c.EnableTrace(0)
	b, err := c.Broadcaster(cepheus.SchemeCepheus, []int{0, 1, 2, 3}, 0)
	if err != nil {
		return nil, err
	}
	if _, err := c.RunBcastErr(b, 0, size); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = c.WriteTrace(&buf)
	return buf.Bytes(), err
}

// writeFixtures writes a.jsonl and b.jsonl (broadcasts of different sizes,
// so their censuses differ) plus broken variants of a.
func writeFixtures() error {
	a, err := bcastTrace(4 << 10)
	if err != nil {
		return err
	}
	b, err := bcastTrace(16 << 10)
	if err != nil {
		return err
	}
	if !bytes.Contains(a, []byte(`"kind":"ENQ"`)) {
		return errors.New("fixture trace has no ENQ events")
	}
	files := map[string][]byte{
		"a.jsonl":         a,
		"b.jsonl":         b,
		"empty.jsonl":     nil,
		"truncated.jsonl": a[:len(a)-len(a)/3],
		"corrupt.jsonl":   append(append([]byte{}, a...), "{not json\n"...),
		"badkind.jsonl":   bytes.Replace(a, []byte(`"kind":"ENQ"`), []byte(`"kind":"NOPE"`), 1),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// run executes cepheus-trace with args; fixture names are resolved in dir.
func run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	for i, a := range args {
		if strings.HasSuffix(a, ".jsonl") {
			args[i] = filepath.Join(dir, a)
		}
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("cepheus-trace %v: %v", args, err)
	}
	return code, out.String(), errb.String()
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"a.jsonl"}, 0},
		{[]string{"-summary", "a.jsonl"}, 0},
		{[]string{"-kind", "DELIVER", "a.jsonl"}, 0},
		{[]string{"spans", "a.jsonl"}, 0},
		{[]string{"timeline", "a.jsonl"}, 0},
		{[]string{"groups", "a.jsonl"}, 0},
		{[]string{"diff", "a.jsonl", "a.jsonl"}, 0},
		{[]string{"-summary", "-diff", "a.jsonl", "a.jsonl"}, 0},

		{[]string{"diff", "a.jsonl", "b.jsonl"}, 1},
		{[]string{"diff", "-json", "a.jsonl", "b.jsonl"}, 1},
		{[]string{"-diff", "b.jsonl", "a.jsonl"}, 1},
		{[]string{"-summary", "-diff", "b.jsonl", "a.jsonl"}, 1},
		{[]string{"groups", "-slo", "p99=1ns", "a.jsonl"}, 1},

		{[]string{"empty.jsonl"}, 2},
		{[]string{"truncated.jsonl"}, 2},
		{[]string{"corrupt.jsonl"}, 2},
		{[]string{"badkind.jsonl"}, 2},
		{[]string{"-summary", "badkind.jsonl"}, 2},
		{[]string{"missing.jsonl"}, 2},
		{[]string{"diff", "a.jsonl", "corrupt.jsonl"}, 2},
		{[]string{"-kind", "NOPE", "a.jsonl"}, 2},
		{[]string{"-summary", "-kind", "NOPE", "a.jsonl"}, 2},
		{[]string{"-reason", "bogus", "a.jsonl"}, 2},
		{[]string{"-dst", "1.2.3", "a.jsonl"}, 2},
		{[]string{"groups", "-slo", "p99=abc", "a.jsonl"}, 2},
		{[]string{"spans", "-msg", "garbage", "a.jsonl"}, 2},
		{[]string{"timeline", "-msg", "garbage", "a.jsonl"}, 2},
	}
	for _, c := range cases {
		name := strings.Join(c.args, " ")
		t.Run(name, func(t *testing.T) {
			code, stdout, stderr := run(t, c.args...)
			if code != c.want {
				t.Fatalf("exit %d, want %d\nstdout: %.300s\nstderr: %s", code, c.want, stdout, stderr)
			}
			if code != 2 {
				return
			}
			if stdout != "" {
				t.Errorf("exit 2 printed a report: %.300s", stdout)
			}
			if strings.Count(stderr, "\n") != 1 {
				t.Errorf("want a one-line diagnosis, got %q", stderr)
			}
		})
	}
}

// Both diff forms print the same census deltas.
func TestDiffFormsAgree(t *testing.T) {
	_, sub, _ := run(t, "diff", "a.jsonl", "b.jsonl")
	_, flagForm, _ := run(t, "-diff", "b.jsonl", "a.jsonl")
	if sub == "" || sub != flagForm {
		t.Fatalf("diff a b:\n%s\n-diff b a:\n%s", sub, flagForm)
	}
}

// The typed filters select exactly the named kind, and -diff applies them
// to both traces.
func TestFilters(t *testing.T) {
	_, out, _ := run(t, "-kind", "DELIVER", "a.jsonl")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want one DELIVER per receiver, got:\n%s", out)
	}
	for _, l := range lines {
		if !strings.Contains(l, " DELIVER ") {
			t.Fatalf("-kind DELIVER kept %q", l)
		}
	}
	_, sum, _ := run(t, "-summary", "-kind", "DELIVER", "-diff", "b.jsonl", "a.jsonl")
	if !strings.HasPrefix(sum, "no census differences (3 events in ") {
		t.Fatalf("-diff did not filter both traces:\n%s", sum)
	}
}
