// Output pins: SHA-256 hashes of what every identity variant simulates,
// committed in testdata/outputs.json. The wheel-vs-heap test compares two
// queues within one build; the pins compare this build against the one that
// wrote the file, so a change that moves output the same way on both queues
// still shows.
//
// Recompute and compare:
//
//	go test ./internal/sim -run TestOutputPins -v
//
// Rewrite the file after a change that means to move output, and name the
// moved pins and the reason with the change:
//
//	go test ./internal/sim -run TestOutputPins -update

package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/outputs.json from this build")

const pinFile = "testdata/outputs.json"

// pin is one variant's output: the hash of its encoded node traces and the
// hash of its RunSpec Result JSON.
type pin struct {
	Traces string `json:"traces"`
	Result string `json:"result"`
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestOutputPins recomputes every identity variant's pins at each pin seed
// and names each pin that differs from testdata/outputs.json. Pins are keyed
// by the variant's subtest name under TestWheelHeapTraceIdentity.
func TestOutputPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler fuses multiply-adds on arm64, ppc64le, s390x and
		// riscv64, so float results, and the hashes of everything derived
		// from them, can differ from the amd64 build the pins came from.
		t.Skipf("output pins are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	got := make(map[string]pin)
	for _, v := range identityVariants(t) {
		for _, seed := range pinSeeds {
			v := v
			v.Seed = seed
			t.Run(variantName(v), func(t *testing.T) {
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
				got[strings.TrimPrefix(t.Name(), "TestOutputPins/")] = pin{Traces: sha(traces), Result: sha(rj)}
			})
		}
	}
	if t.Failed() {
		return
	}

	if *update {
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
			moved = append(moved, name+": "+strings.Join(what, " and ")+" moved")
		}
	}
	for _, name := range slices.Sorted(maps.Keys(want)) {
		if _, ok := got[name]; !ok {
			moved = append(moved, name+": pinned, but no variant has this name")
		}
	}
	if len(moved) > 0 {
		t.Errorf("%d of %d output pins moved (rewrite with -update only if the change means to move them):\n  %s",
			len(moved), len(want), strings.Join(moved, "\n  "))
	}
}
