package main

import (
	"strings"
	"testing"
)

// TestRunUsageErrors pins the CLI error contract: every usage-level mistake —
// no subcommand, an unknown subcommand, a flag-parse failure, an out-of-range
// flag value, wrong arity —
// exits 2 through run's return value (never os.Exit, so deferred profile
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
