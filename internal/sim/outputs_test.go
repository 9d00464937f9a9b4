// Output pins: SHA-256 hashes of what every identity variant simulates and
// of every experiment report but Table 5, committed in testdata/outputs.json.
// The wheel-vs-heap test compares two queues within one build; the pins
// compare this build against the one that wrote the file, so a change that
// moves output the same way on both queues still shows.
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
// encoded node traces and the hash of its RunSpec Result JSON; an exhibit's
// holds the hash of its rendered report.
type pin struct {
	Traces string `json:"traces,omitempty"`
	Result string `json:"result,omitempty"`
	Report string `json:"report,omitempty"`
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
// pins at each pin seed and names each pin that differs from
// testdata/outputs.json. A variant's pins are keyed by its subtest name under
// TestWheelHeapTraceIdentity, an exhibit's by "exhibit/<id>/seed=N".
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
				got[name] = pin{Traces: sha(traces), Result: sha(rj)}
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
	var moved []string
	for _, name := range slices.Sorted(maps.Keys(got)) {
		g, w := got[name], want[name]
		switch {
		case w == pin{}:
			moved = append(moved, name+": no pin in the file")
		case g != w:
			var what []string
			if g.Traces != w.Traces {
				what = append(what, "traces")
			}
			if g.Result != w.Result {
				what = append(what, "result")
			}
			if g.Report != w.Report {
				what = append(what, "report")
			}
			moved = append(moved, name+": "+strings.Join(what, " and ")+" moved")
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
		t.Errorf("%d of %d output pins moved (rewrite with -update only if the change means to move them):\n  %s",
			len(moved), len(want), strings.Join(moved, "\n  "))
	}
}

// TestCompletePins checks the rule that keeps -update from dropping pins: a
// set missing any pin, as a -run subset leaves it, is refused; the full set
// is accepted.
func TestCompletePins(t *testing.T) {
	names := []string{"blink/seed=1/placement=", "exhibit/fig10/seed=1", "exhibit/fig10/seed=7"}
	full := map[string]pin{
		names[0]: {Traces: "a", Result: "b"},
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
