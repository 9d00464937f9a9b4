package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/power"
	"repro/internal/trace"
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

// readLog decodes a whole trace file.
func readLog(t *testing.T, name string) []core.Entry {
	t.Helper()
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []core.Entry
	if err := forEachBatch(trace.NewReader(f), func(batch []core.Entry) error {
		out = append(out, batch...)
		return nil
	}); err != nil {
		t.Fatalf("decode %s: %v", name, err)
	}
	return out
}

// memMerge merges per-node logs in memory, node ids by position, and
// returns the merged stream encoded and the node of each of its entries.
func memMerge(t *testing.T, logs ...[]core.Entry) ([]byte, []core.NodeID) {
	t.Helper()
	streams := make([]trace.Stream, len(logs))
	for i, l := range logs {
		streams[i] = trace.Stream{Node: core.NodeID(i + 1), Source: trace.NewSliceSource(l)}
	}
	m, err := trace.NewMerger(streams)
	if err != nil {
		t.Fatal(err)
	}
	var entries []core.Entry
	var nodes []core.NodeID
	for {
		s, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		entries, nodes = append(entries, s.Entry), append(nodes, s.Node)
	}
	return trace.Marshal(entries), nodes
}

// TestMergeWritesInMemoryMerge runs merge end to end on two Blink logs. It
// writes exactly the encoded in-memory merge of the two. When the second
// input ends in a partial frame, merge exits 1 naming the truncation, after
// writing every complete entry merged before it: a prefix of the clean
// merge that reaches the second log's last complete entry. When that input
// holds no complete frame at all, the output is empty.
func TestMergeWritesInMemoryMerge(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.qt"), filepath.Join(dir, "b.qt")
	if err := gen(a, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := gen(b, 2, 2); err != nil {
		t.Fatal(err)
	}
	logA, logB := readLog(t, a), readLog(t, b)
	want, _ := memMerge(t, logA, logB)

	out := filepath.Join(dir, "merged.qt")
	var stderr strings.Builder
	if code := run([]string{"merge", out, a, b}, &stderr); code != 0 {
		t.Fatalf("merge exited %d: %s", code, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merge wrote %d bytes, not the %d-byte in-memory merge", len(got), len(want))
	}

	// Node 2's log loses its second half, and a partial frame ends it.
	keep := len(logB) / 2
	cut := filepath.Join(dir, "cut.qt")
	if err := os.WriteFile(cut, append(trace.Marshal(logB[:keep]), 0x01, 0x02, 0x03, 0x04, 0x05), 0o644); err != nil {
		t.Fatal(err)
	}
	full, nodes := memMerge(t, logA, logB[:keep])
	last := 0 // where node 2's last complete entry lands in the clean merge
	for i, n := range nodes {
		if n == 2 {
			last = i
		}
	}
	stderr.Reset()
	if code := run([]string{"merge", out, a, cut}, &stderr); code != 1 || !strings.Contains(stderr.String(), "truncated entry") {
		t.Fatalf("merge of a truncated input exited %d, want 1 naming the truncated entry: %s", code, stderr.String())
	}
	got, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < (last+1)*trace.EntrySize || !bytes.HasPrefix(full, got) {
		t.Errorf("merge wrote %d bytes before failing, want a prefix of the %d-byte clean merge of at least %d entries",
			len(got), len(full), last+1)
	}

	if err := os.WriteFile(cut, []byte{0x01, 0x02, 0x03, 0x04, 0x05}, 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"merge", out, a, cut}, &stderr); code != 1 || !strings.Contains(stderr.String(), "truncated entry") {
		t.Fatalf("merge of an input with no complete frame exited %d, want 1 naming the truncated entry: %s", code, stderr.String())
	}
	if got, err := os.ReadFile(out); err != nil || len(got) != 0 {
		t.Errorf("merge of an input with no complete frame left %d bytes at OUT (%v), want none", len(got), err)
	}
}

// TestSummaryRejectsClockStepBack: summary exits 1 on a log whose clock
// steps back by 10 us, which no 32-bit wrap explains, naming the entry and
// both stamps; a real wrap, 4,294,967,200 -> 50 us, summarizes.
func TestSummaryRejectsClockStepBack(t *testing.T) {
	name := filepath.Join(t.TempDir(), "log.qt")
	for _, c := range []struct {
		stamps []uint32
		code   int
		stderr string
	}{
		{[]uint32{1000, 2000, 1990, 3000}, 1, "trace: entry 2: clock steps back from 2000 to 1990 us"},
		{[]uint32{4_294_967_200, 50}, 0, ""},
	} {
		entries := make([]core.Entry, len(c.stamps))
		for i, ts := range c.stamps {
			entries[i] = core.Entry{Type: core.EntryMarker, Time: ts, IC: uint32(i)}
		}
		if err := os.WriteFile(name, trace.Marshal(entries), 0o644); err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		if code := run([]string{"summary", name}, &stderr); code != c.code || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("summary of stamps %v: exit %d, stderr %q; want %d and %q", c.stamps, code, stderr.String(), c.code, c.stderr)
		}
	}
}

// TestSummaryPulsesOnMergedStreams checks that summary counts a single
// log's pulses but not a merged stream's. Two Blink logs merged by time,
// in either order, interleave counters that never run back, so only the
// entries after the first log's end stamp show the merge; two logs ending
// in a death marker, one after the other, show it the same way.
func TestSummaryPulsesOnMergedStreams(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.qt"), filepath.Join(dir, "b.qt")
	if err := gen(a, 1, 48); err != nil {
		t.Fatal(err)
	}
	if err := gen(b, 2, 20); err != nil {
		t.Fatal(err)
	}
	pulses := func(data []byte) string {
		t.Helper()
		var out strings.Builder
		if err := summary(&out, trace.NewReader(bytes.NewReader(data))); err != nil {
			t.Fatal(err)
		}
		_, last, _ := strings.Cut(strings.TrimSuffix(out.String(), "\n"), "span: ")
		return last
	}
	merged := func(names ...string) []byte {
		t.Helper()
		out := filepath.Join(dir, "merged.qt")
		var stderr strings.Builder
		if code := run(append([]string{"merge", out}, names...), &stderr); code != 0 {
			t.Fatalf("merge exited %d: %s", code, stderr.String())
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dying := func(t0, ic0 uint32) []core.Entry {
		return []core.Entry{
			{Type: core.EntryMarker, Time: t0, IC: ic0},
			{Type: core.EntryMarker, Time: t0 + 10, IC: ic0 + 5},
			{Type: core.EntryMarker, Res: power.ResBaseline, Time: t0 + 20, IC: ic0 + 9, Val: mote.DeathMarker},
		}
	}
	const na = "pulses: n/a (merged stream interleaves per-node counters)"
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"node 1's log", trace.Marshal(readLog(t, a)), "48000000 us, 62173 pulses"},
		{"merge of node 1's and node 2's logs", merged(a, b), "48000000 us, " + na},
		{"merge of node 2's and node 1's logs", merged(b, a), "48000000 us, " + na},
		{"two logs ending in a death marker", trace.Marshal(append(dying(100, 0), dying(200, 50)...)), "120 us, " + na},
	} {
		if got := pulses(c.data); got != c.want {
			t.Errorf("summary of %s: span %s, want %s", c.name, got, c.want)
		}
	}
}

// lifetimeStudies are the matrices lifetime's output is pinned on. The
// routed one is a CTP grid whose every node has a battery and whose centre
// node's battery is swept: at 60 uAh it dies on every seed, at 109.89 uAh on
// some seeds only (so the route extension covers fewer runs than its
// group), and at 200 uAh on none. The LPL one is unrouted, with death counts
// from every seed to none.
var lifetimeStudies = []struct{ name, matrix string }{
	{"ctp", `{"base":{"app":"relay","seed":3,"duration_us":20000000,"nodes":9,
		"placement":"grid","area_m":60,"routing":"ctp","battery_uah":400},
		"sweep":{"battery_node_uah":[{"5":60},{"5":109.89},{"5":200}]},"seeds":4}`},
	{"lpl", `{"base":{"app":"lpl","seed":1,"duration_us":15000000,"channel":17},
		"sweep":{"battery_uah":[4,8,9,16]},"seeds":4}`},
}

// lifetimePins holds the SHA-256 of each study's output, keyed
// study/form: the table, and the -json form.
var lifetimePins = map[string]string{
	"ctp/table": "e7603cadd56d43d18e8ea5ba7a4d7724dcc9911a5ac8763b6c0bc022cb658aa2",
	"ctp/json":  "0b5462f0c0e4e020e2568e11822626e25cb3fe377ae28950e88853cdb28c6841",
	"lpl/table": "5f78168c4f590bd59a2f1223d84aa84c706f049adb07e55484714e59ad6d40f2",
	"lpl/json":  "f61b58e4f21a5919c7637a26d6f89f8e5dd6e306d61b0be60a6c77a622938cac",
}

// TestLifetimeOutputPinned runs lifetime on each study, as a table and as
// JSON, at one and two workers. The bytes must not depend on the worker
// count, and they must hash to the pin. The routed study's JSON nests the
// lifetime and route reports, and holds a node that died on some of its
// group's seeds but not all, and a route group whose extension covers fewer
// runs than the group; the LPL study's JSON is the lifetime report alone.
// A spec that gives no node a battery fails naming the missing battery.
func TestLifetimeOutputPinned(t *testing.T) {
	dir := t.TempDir()
	type lifetimeGroups struct {
		Groups []struct {
			Runs  int `json:"runs"`
			Nodes []struct {
				Runs   int `json:"runs"`
				Deaths int `json:"deaths"`
			} `json:"nodes"`
		} `json:"groups"`
	}
	// partial reports whether some node died on some of its runs only.
	partial := func(lg lifetimeGroups) bool {
		for _, g := range lg.Groups {
			for _, n := range g.Nodes {
				if n.Deaths > 0 && n.Deaths < n.Runs {
					return true
				}
			}
		}
		return false
	}
	for _, st := range lifetimeStudies {
		name := filepath.Join(dir, st.name+".json")
		if err := os.WriteFile(name, []byte(st.matrix), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, jsonOut := range []bool{false, true} {
			key := st.name + "/table"
			if jsonOut {
				key = st.name + "/json"
			}
			t.Run(key, func(t *testing.T) {
				var outs [2]string
				for i, workers := range []int{1, 2} {
					var out strings.Builder
					if err := lifetime(&out, name, workers, jsonOut); err != nil {
						t.Fatalf("lifetime -workers %d: %v", workers, err)
					}
					outs[i] = out.String()
				}
				if outs[0] != outs[1] {
					t.Fatalf("output differs between 1 and 2 workers:\n%s\nvs\n%s", outs[0], outs[1])
				}
				if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(outs[0]))); sum != lifetimePins[key] {
					t.Errorf("output hash %s, pinned %s:\n%s", sum, lifetimePins[key], outs[0])
				}
				if !jsonOut {
					return
				}
				var lg lifetimeGroups
				switch st.name {
				case "ctp":
					var both struct {
						Lifetime lifetimeGroups `json:"lifetime"`
						Routes   struct {
							Groups []struct {
								Runs   int `json:"runs"`
								Deaths int `json:"deaths"`
							} `json:"groups"`
						} `json:"routes"`
					}
					if err := json.Unmarshal([]byte(outs[0]), &both); err != nil {
						t.Fatal(err)
					}
					lg = both.Lifetime
					short := false
					for _, g := range both.Routes.Groups {
						short = short || g.Deaths > 0 && g.Deaths < g.Runs
					}
					if len(both.Routes.Groups) == 0 || !short {
						t.Errorf("no route group's extension covers fewer runs than the group:\n%s", outs[0])
					}
				default:
					if err := json.Unmarshal([]byte(outs[0]), &lg); err != nil {
						t.Fatal(err)
					}
				}
				if len(lg.Groups) == 0 || !partial(lg) {
					t.Errorf("no node died on some of its group's runs but not all:\n%s", outs[0])
				}
			})
		}
	}

	name := filepath.Join(dir, "nobattery.json")
	if err := os.WriteFile(name, []byte(`{"app":"lpl","seed":1,"duration_us":1000000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	if code := run([]string{"lifetime", name}, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), "no node has a finite battery") {
		t.Errorf("lifetime of a spec with no battery exited %d: %s", code, stderr.String())
	}
}
