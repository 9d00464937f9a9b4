// Output pins: SHA-256 hashes of what every identity variant simulates, of
// every experiment report but Table 5 and of every example's stdout,
// committed in testdata/outputs.json. The wheel-vs-heap test compares two
// queues within one build; the pins compare this build against the one that
// wrote the file, so a change that moves output the same way on both queues
// still shows.
//
// Recompute and compare:
//
//	go test ./internal/sim -run TestOutputPins -v
//
// A -run subset compares only the pins whose subtests ran. Rewrite the file
// after a change that means to move output, and name the moved pins and the
// reason with the change; -update refuses to write unless every pin ran:
//
//	go test ./internal/sim -run TestOutputPins -update

package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/outputs.json from this build")

const pinFile = "testdata/outputs.json"

// pin is one pinned output. An identity variant's pin holds the hash of its
// encoded node traces and one hash per member of its RunSpec Result JSON,
// keyed by the member's name, with one "metrics/<key>" hash per app metric
// in place of the metrics object: a member or metric a change adds is a new
// hash, and moves none of the others. An exhibit's pin holds the hash of its
// rendered report, and an example's the hash of what it prints.
type pin struct {
	Traces string            `json:"traces,omitempty"`
	Result map[string]string `json:"result,omitempty"`
	Report string            `json:"report,omitempty"`
}

// resultPins hashes a Result's JSON one top-level member at a time, and its
// metrics one key at a time.
func resultPins(rj []byte) (map[string]string, error) {
	var members map[string]json.RawMessage
	if err := json.Unmarshal(rj, &members); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(members))
	for _, name := range slices.Sorted(maps.Keys(members)) {
		if name != "metrics" {
			out[name] = sha(members[name])
			continue
		}
		var metrics map[string]json.RawMessage
		if err := json.Unmarshal(members[name], &metrics); err != nil {
			return nil, err
		}
		for _, key := range slices.Sorted(maps.Keys(metrics)) {
			out["metrics/"+key] = sha(metrics[key])
		}
	}
	return out, nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// completePins reports why got cannot replace the pin file: a pin in names
// whose subtest did not run (a -run filter skipped it). Writing an
// incomplete set would delete the pins left out.
func completePins(names []string, got map[string]pin) error {
	var unrun []string
	for _, name := range names {
		if _, ok := got[name]; !ok {
			unrun = append(unrun, name)
		}
	}
	if len(unrun) > 0 {
		return fmt.Errorf("%d of %d pins did not run (first: %s); rewrite the file from a run without -run", len(unrun), len(names), unrun[0])
	}
	return nil
}

// TestOutputPins recomputes every identity variant's and every exhibit's
// pins at each pin seed, and every example's, and names each hash that
// differs from testdata/outputs.json. A variant's pins are keyed by its
// subtest name under TestWheelHeapTraceIdentity, an exhibit's by
// "exhibit/<id>/seed=N" and an example's by "example/<dir>". The examples
// are found by listing examples/, so an example without a pin fails.
func TestOutputPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler fuses multiply-adds on arm64, ppc64le, s390x and
		// riscv64, so float results, and the hashes of everything derived
		// from them, can differ from the amd64 build the pins came from.
		t.Skipf("output pins are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var names []string // every pin, whether or not -run selects its subtest
	pinName := func(name string) string {
		if slices.Contains(names, name) {
			t.Fatalf("two pins are named %s", name)
		}
		names = append(names, name)
		return name
	}
	got := make(map[string]pin)
	for _, v := range identityVariants(t) {
		for _, seed := range pinSeeds {
			v := v
			v.Seed = seed
			name := pinName(variantName(v))
			t.Run(name, func(t *testing.T) {
				traces, _ := encodedTraces(t, v)
				res := scenario.RunSpec(v)
				if res.Error != "" {
					t.Fatalf("run: %s", res.Error)
				}
				if tr := res.Spec.Traffic; tr != nil && tr.File != "" {
					// The replay variant's trace sits in a temporary
					// directory; its path is not output.
					c := *tr
					c.File = ""
					res.Spec.Traffic = &c
				}
				rj, err := json.Marshal(res)
				if err != nil {
					t.Fatalf("marshal result: %v", err)
				}
				members, err := resultPins(rj)
				if err != nil {
					t.Fatalf("split result: %v", err)
				}
				got[name] = pin{Traces: sha(traces), Result: members}
			})
		}
	}
	for _, e := range experiments.Exhibits {
		if e.ID == "table5" {
			// Table 5 counts this repository's own source lines, so any
			// refactor moves it while nothing simulated moves.
			continue
		}
		for _, seed := range pinSeeds {
			name := pinName(fmt.Sprintf("exhibit/%s/seed=%d", e.ID, seed))
			t.Run(name, func(t *testing.T) {
				r, err := e.Run(seed)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				got[name] = pin{Report: sha([]byte(r.String()))}
			})
		}
	}
	// The examples are built once, by the first example subtest that runs,
	// and each runs with no flags in a directory of its own.
	root := filepath.Join("..", "..")
	bin := t.TempDir()
	var buildErr error
	built := false
	dirs, err := os.ReadDir(filepath.Join(root, "examples"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		name := pinName("example/" + d.Name())
		t.Run(name, func(t *testing.T) {
			if !built {
				built = true
				build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
				build.Dir = root
				if out, err := build.CombinedOutput(); err != nil {
					buildErr = fmt.Errorf("go build ./examples/...: %v\n%s", err, out)
				}
			}
			if buildErr != nil {
				t.Fatal(buildErr)
			}
			var args []string
			if d.Name() == "traffic" {
				// It prints where it wrote the trace: a path relative
				// to the run's directory prints the same every time.
				args = []string{"-out", "traffic.jsonl"}
			}
			run := exec.Command(filepath.Join(bin, d.Name()), args...)
			run.Dir = t.TempDir()
			var stderr bytes.Buffer
			run.Stderr = &stderr
			out, err := run.Output()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.Bytes())
			}
			got[name] = pin{Report: sha(out)}
		})
	}
	if t.Failed() {
		return
	}

	if *update {
		if err := completePins(names, got); err != nil {
			t.Fatalf("-update writes no pins: %v", err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d pins to %s", len(got), pinFile)
		return
	}

	data, err := os.ReadFile(pinFile)
	if err != nil {
		t.Fatalf("read pins (write them with -update): %v", err)
	}
	var want map[string]pin
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("parse %s: %v", pinFile, err)
	}
	// A hash that differs or is gone has moved; a pin or Result member
	// the file lacks is new.
	var moved, added []string
	for _, name := range slices.Sorted(maps.Keys(got)) {
		g, w := got[name], want[name]
		if _, ok := want[name]; !ok {
			added = append(added, name)
			continue
		}
		if g.Traces != w.Traces {
			moved = append(moved, name+": traces")
		}
		if g.Report != w.Report {
			moved = append(moved, name+": report")
		}
		for _, m := range slices.Sorted(maps.Keys(g.Result)) {
			switch h, ok := w.Result[m]; {
			case !ok:
				added = append(added, name+": result/"+m)
			case h != g.Result[m]:
				moved = append(moved, name+": result/"+m)
			}
		}
		for _, m := range slices.Sorted(maps.Keys(w.Result)) {
			if _, ok := g.Result[m]; !ok {
				moved = append(moved, name+": result/"+m+" is gone")
			}
		}
	}
	// A pin whose subtest -run filtered out is not compared; a pin no
	// subtest computes is stale.
	for _, name := range slices.Sorted(maps.Keys(want)) {
		if !slices.Contains(names, name) {
			moved = append(moved, name+": pinned, but no variant has this name")
		}
	}
	if len(moved) > 0 {
		t.Errorf("%d output hashes moved (rewrite with -update only if the change means to move them):\n  %s",
			len(moved), strings.Join(moved, "\n  "))
	}
	if len(added) > 0 {
		t.Errorf("%d output hashes are new, with none in %s (record them with -update):\n  %s",
			len(added), pinFile, strings.Join(added, "\n  "))
	}
}

// TestCompletePins checks the rule that keeps -update from dropping pins: a
// set missing any pin, as a -run subset leaves it, is refused; the full set
// is accepted.
func TestCompletePins(t *testing.T) {
	names := []string{"blink/seed=1/placement=", "exhibit/fig10/seed=1", "exhibit/fig10/seed=7"}
	full := map[string]pin{
		names[0]: {Traces: "a", Result: map[string]string{"run": "b"}},
		names[1]: {Report: "c"},
		names[2]: {Report: "d"},
	}
	if err := completePins(names, full); err != nil {
		t.Errorf("full set refused: %v", err)
	}
	partial := map[string]pin{names[1]: full[names[1]]}
	if err := completePins(names, partial); err == nil || !strings.Contains(err.Error(), "2 of 3 pins did not run") {
		t.Errorf("partial set: error %v, want 2 of 3 pins unrun", err)
	}
}
