package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRunUsageErrors pins the CLI error contract: every usage-level mistake —
// no subcommand, an unknown subcommand, a flag-parse failure, an out-of-range
// or invalid flag value, wrong arity — exits 2 through run's return value (never os.Exit, so deferred profile
// writers still run) and prints the usage text to stderr.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr []string // substrings that must appear
	}{
		{
			name:   "no subcommand",
			args:   nil,
			code:   2,
			stderr: []string{"usage: quanto-trace"},
		},
		{
			name:   "unknown subcommand",
			args:   []string{"frobnicate"},
			code:   2,
			stderr: []string{`unknown subcommand "frobnicate"`, "usage: quanto-trace"},
		},
		{
			name:   "flag parse failure",
			args:   []string{"sweep", "-no-such-flag", "spec.json"},
			code:   2,
			stderr: []string{"-no-such-flag", "usage: quanto-trace"},
		},
		{
			name:   "unknown partitions flag",
			args:   []string{"sweep", "-partitions", "2", "spec.json"},
			code:   2,
			stderr: []string{"-partitions", "usage: quanto-trace"},
		},
		{
			name:   "unknown queue flag",
			args:   []string{"sweep", "-queue", "heap", "spec.json"},
			code:   2,
			stderr: []string{"-queue", "usage: quanto-trace"},
		},
		{
			name:   "unknown traffic flag",
			args:   []string{"record", "-traffic", `{"shape":"constant","rps":5}`, "out.jsonl", "spec.json"},
			code:   2,
			stderr: []string{"-traffic", "usage: quanto-trace"},
		},
		{
			name:   "negative workers",
			args:   []string{"sweep", "-workers", "-1", "spec.json"},
			code:   2,
			stderr: []string{"-workers must be >= 0", "usage: quanto-trace"},
		},
		{
			name:   "zero secs",
			args:   []string{"gen", "-secs", "0", "-"},
			code:   2,
			stderr: []string{"-secs must be > 0", "usage: quanto-trace"},
		},
		{
			name:   "negative secs",
			args:   []string{"gen", "-secs", "-5", "-"},
			code:   2,
			stderr: []string{"-secs must be > 0", "usage: quanto-trace"},
		},
		{
			name:   "gen arity",
			args:   []string{"gen"},
			code:   2,
			stderr: []string{"usage: quanto-trace"},
		},
		{
			name:   "merge arity",
			args:   []string{"merge", "out.bin"},
			code:   2,
			stderr: []string{"usage: quanto-trace"},
		},
		{
			name:   "record arity",
			args:   []string{"record", "only-one-arg"},
			code:   2,
			stderr: []string{"usage: quanto-trace"},
		},
		{
			name:   "analyze stdin twice",
			args:   []string{"analyze", "-", "-"},
			code:   1,
			stderr: []string{"stdin may be given as at most one input"},
		},
		{
			name:   "dump too many files",
			args:   []string{"dump", "a.bin", "b.bin"},
			code:   1, // runtime error, not a usage error
			stderr: []string{"at most one FILE"},
		},
		{
			name:   "missing spec file",
			args:   []string{"sweep", "/no/such/spec.json"},
			code:   1,
			stderr: []string{"no/such/spec.json"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			if got := run(tc.args, &stderr); got != tc.code {
				t.Errorf("run(%q) = %d, want %d (stderr: %s)", tc.args, got, tc.code, stderr.String())
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("run(%q) stderr missing %q:\n%s", tc.args, want, stderr.String())
				}
			}
		})
	}
}

// blink48s is analyze's report on a 48 s Blink log (gen -seed 1 -secs 48).
const blink48s = `span:             48.000 s
measured energy:  517.90 mJ
average power:    10.79 mW
state groups:     16

fitted draws (mW):
  res0   state1      3.875
  res14  state1      7.511
  res15  state1      6.704
  res16  state1      2.490
  const               2.430

reconstruction error: 0.00223%
`

// TestAnalyzePerNodeFiles pins analyze's contract: one FILE prints that
// node's block alone, byte for byte; several FILEs are analyzed as separate
// nodes (ids by position, as merge assigns them), each block under a
// "node N (FILE)" header, followed by the network's measured energy — the
// sum over nodes, which a merged stream analyzed as one node understates.
func TestAnalyzePerNodeFiles(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.qt"), filepath.Join(dir, "b.qt")
	if err := gen(a, 1, 48); err != nil {
		t.Fatal(err)
	}
	if err := gen(b, 2, 20); err != nil {
		t.Fatal(err)
	}
	report := func(names ...string) string {
		t.Helper()
		var out strings.Builder
		if err := analyze(&out, names); err != nil {
			t.Fatalf("analyze %v: %v", names, err)
		}
		return out.String()
	}

	if got := report(a); got != blink48s {
		t.Errorf("single-file report changed:\n%s\nwant:\n%s", got, blink48s)
	}
	single := report(b)
	if !strings.Contains(single, "measured energy:  210.79 mJ\n") {
		t.Errorf("20 s log report:\n%s", single)
	}

	want := "node 1 (" + a + ")\n" + blink48s + "\n" +
		"node 2 (" + b + ")\n" + single + "\n" +
		"network measured energy: 728.69 mJ\n"
	if got := report(a, b); got != want {
		t.Errorf("two-file report:\n%s\nwant:\n%s", got, want)
	}
}
