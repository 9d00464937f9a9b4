package scenario_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps" // registers the paper's workloads
	"repro/internal/scenario"
	"repro/internal/units"
)

// lplMatrix is the shared small-but-real test matrix: an LPL interference
// study swept over two channels and two check periods across replicated
// seeds (2 x 2 x seeds runs, a few simulated seconds each).
func lplMatrix(seeds int) scenario.Matrix {
	return scenario.Matrix{
		Base: scenario.Spec{
			App:        "lpl",
			Seed:       1,
			DurationUS: int64(3 * units.Second),
		},
		Sweep: map[string][]any{
			"channel":         {17, 26},
			"check_period_us": {250000, 500000},
		},
		Seeds: seeds,
	}
}

func TestRegistryHasPaperApps(t *testing.T) {
	got := scenario.Apps()
	for _, want := range []string{"blink", "bounce", "lpl", "relay", "sensesend", "timerbug", "dma"} {
		found := false
		for _, name := range got {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("app %q not registered (have %v)", want, got)
		}
	}
	// Keep the apps import honest: a registered app must build.
	in, err := scenario.Build(scenario.Spec{App: "blink", Seed: 1, DurationUS: int64(units.Second)})
	if err != nil {
		t.Fatalf("build blink: %v", err)
	}
	if _, ok := in.App.(*apps.Blink); !ok {
		t.Fatalf("blink instance app = %T, want *apps.Blink", in.App)
	}
}

func TestBuildUnknownApp(t *testing.T) {
	_, err := scenario.Build(scenario.Spec{App: "no-such-app", DurationUS: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown app") {
		t.Fatalf("err = %v, want unknown app", err)
	}
}

func TestExpandMatrix(t *testing.T) {
	m := lplMatrix(3)
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2*2*3 {
		t.Fatalf("expanded %d runs, want 12", len(specs))
	}
	// Fields expand in sorted-name order with the last varying fastest and
	// seeds innermost: channel is the slow axis here.
	if specs[0].Channel != 17 || specs[len(specs)-1].Channel != 26 {
		t.Errorf("channel order: first %d last %d", specs[0].Channel, specs[len(specs)-1].Channel)
	}
	// Replicas of one configuration share everything but the seed.
	if specs[0].ConfigKey() != specs[1].ConfigKey() {
		t.Errorf("replicas differ in config: %s vs %s", specs[0].ConfigKey(), specs[1].ConfigKey())
	}
	if specs[0].Seed == specs[1].Seed {
		t.Errorf("replicas share seed %d", specs[0].Seed)
	}
	// Different configurations get different seed streams even at the same
	// replica index.
	if specs[0].Seed == specs[3].Seed {
		t.Errorf("distinct configs share seed %d", specs[0].Seed)
	}
}

func TestExpandRejectsUnknownField(t *testing.T) {
	m := lplMatrix(1)
	m.Sweep["chanel"] = []any{17} // typo
	if _, err := m.Expand(); err == nil {
		t.Fatal("expand accepted a misspelled sweep field")
	}
}

func TestExpandWithoutSeedsKeepsBaseSeed(t *testing.T) {
	m := lplMatrix(0)
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("expanded %d runs, want 4", len(specs))
	}
	for _, sp := range specs {
		if sp.Seed != m.Base.Seed {
			t.Errorf("seed %d, want base seed %d", sp.Seed, m.Base.Seed)
		}
	}
}

// TestSeedsStableUnderMatrixReordering pins the satellite requirement:
// because per-run seeds hash the configuration content rather than the run's
// matrix position, rewriting the sweep lists in a different order must not
// move any configuration onto a different seed stream.
func TestSeedsStableUnderMatrixReordering(t *testing.T) {
	a := lplMatrix(4)
	b := lplMatrix(4)
	b.Sweep = map[string][]any{
		"check_period_us": {500000, 250000}, // reversed values
		"channel":         {26, 17},         // reversed values, different key order
	}

	seedsOf := func(m scenario.Matrix) map[string][]uint64 {
		specs, err := m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]uint64)
		for _, sp := range specs {
			out[sp.ConfigKey()] = append(out[sp.ConfigKey()], sp.Seed)
		}
		return out
	}

	sa, sb := seedsOf(a), seedsOf(b)
	if len(sa) != len(sb) {
		t.Fatalf("config counts differ: %d vs %d", len(sa), len(sb))
	}
	for key, seeds := range sa {
		other, ok := sb[key]
		if !ok {
			t.Errorf("config %s missing from reordered matrix", key)
			continue
		}
		for i := range seeds {
			if seeds[i] != other[i] {
				t.Errorf("config %s replica %d: seed %d vs %d", key, i, seeds[i], other[i])
			}
		}
	}
}

func TestParseSpecOrMatrix(t *testing.T) {
	specs, err := scenario.ParseSpecOrMatrix([]byte(`{"app":"blink","duration_us":1000000}`))
	if err != nil || len(specs) != 1 {
		t.Fatalf("single spec: %v, %d specs", err, len(specs))
	}
	specs, err = scenario.ParseSpecOrMatrix([]byte(
		`{"base":{"app":"blink","duration_us":1000000},"sweep":{"seed":[1,2,3]}}`))
	if err != nil || len(specs) != 3 {
		t.Fatalf("matrix: %v, %d specs", err, len(specs))
	}
	if _, err := scenario.ParseSpecOrMatrix([]byte(`{"app":"blink"}`)); err == nil {
		t.Fatal("accepted spec without duration")
	}
	if _, err := scenario.ParseSpecOrMatrix([]byte(`{"base":{"app":"blink","duration_us":1},"sweeep":{}}`)); err == nil {
		t.Fatal("accepted matrix with unknown top-level field")
	}
	// The event queue is not configuration: there is no spec field for it.
	if _, err := scenario.ParseSpecOrMatrix([]byte(`{"app":"blink","duration_us":1000000,"queue":"heap"}`)); err == nil ||
		!strings.Contains(err.Error(), `unknown field "queue"`) {
		t.Fatalf("queue field: err = %v, want unknown-field rejection", err)
	}
	// Nor is recording: every shaped run records its send schedule.
	if _, err := scenario.ParseSpecOrMatrix([]byte(`{"app":"relay","duration_us":1000000,"traffic":{"shape":"constant","rps":2},"record_traffic":true}`)); err == nil ||
		!strings.Contains(err.Error(), `unknown field "record_traffic"`) {
		t.Fatalf("recording flag: err = %v, want unknown-field rejection", err)
	}
}

// TestSweepSeedExactness: seeds beyond 2^53 must survive the matrix
// round-trip bit-exactly — both in the base spec and in a swept seed list.
func TestSweepSeedExactness(t *testing.T) {
	const big = uint64(1)<<53 + 1
	specs, err := scenario.ParseSpecOrMatrix([]byte(fmt.Sprintf(
		`{"base":{"app":"blink","duration_us":1000000,"seed":%d},"sweep":{"channel":[17,26]}}`, big)))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if sp.Seed != big {
			t.Errorf("base seed mangled: %d, want %d", sp.Seed, big)
		}
	}
	specs, err = scenario.ParseSpecOrMatrix([]byte(fmt.Sprintf(
		`{"base":{"app":"blink","duration_us":1000000},"sweep":{"seed":[%d]}}`, big)))
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Seed != big {
		t.Errorf("swept seed mangled: %d, want %d", specs[0].Seed, big)
	}
}

// TestSeedSweepConflictsWithSeeds: replicating a seed sweep would run
// byte-identical duplicates, so Expand must refuse the combination.
func TestSeedSweepConflictsWithSeeds(t *testing.T) {
	for _, field := range []string{"seed", "name"} {
		m := scenario.Matrix{
			Base:  scenario.Spec{App: "blink", DurationUS: 1},
			Sweep: map[string][]any{field: {"1", "2"}},
			Seeds: 4,
		}
		if _, err := m.Expand(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
			t.Fatalf("sweep %q: err = %v, want mutually-exclusive rejection", field, err)
		}
	}
}

// TestGenericKnobsReachEveryApp: sweeping a generic node knob must change
// the simulation for apps beyond blink (every app builds its nodes from
// Spec.NodeOptions).
func TestGenericKnobsReachEveryApp(t *testing.T) {
	run := func(volts float64) *scenario.Result {
		r := scenario.RunSpec(scenario.Spec{
			App: "bounce", Seed: 3, Volts: volts, DurationUS: int64(2 * units.Second),
		})
		if r.Error != "" {
			t.Fatal(r.Error)
		}
		return r
	}
	if a, b := run(0), run(2.5); a.TotalUJ == b.TotalUJ {
		t.Errorf("bounce ignored volts: %g uJ at default and 2.5 V", a.TotalUJ)
	}
	tb := scenario.RunSpec(scenario.Spec{
		App: "timerbug", Seed: 31, Volts: 2.5, DurationUS: int64(2 * units.Second),
	})
	tbDefault := scenario.RunSpec(scenario.Spec{
		App: "timerbug", Seed: 31, DurationUS: int64(2 * units.Second),
	})
	if tb.Error != "" || tbDefault.Error != "" {
		t.Fatal(tb.Error, tbDefault.Error)
	}
	if tb.TotalUJ == tbDefault.TotalUJ {
		t.Errorf("timerbug ignored volts: %g uJ both ways", tb.TotalUJ)
	}
}

func TestRunSpecReportsErrors(t *testing.T) {
	r := scenario.RunSpec(scenario.Spec{App: "no-such-app", DurationUS: 1})
	if r.Error == "" {
		t.Fatal("missing error for unknown app")
	}
	r = scenario.RunSpec(scenario.Spec{App: "relay", Nodes: 1, DurationUS: int64(units.Second)})
	if !strings.Contains(r.Error, "at least 2 nodes") {
		t.Fatalf("relay error = %q", r.Error)
	}
	// More origins than non-sink nodes is an error, not a silent clamp.
	r = scenario.RunSpec(scenario.Spec{App: "relay", Nodes: 3, Origins: 50, DurationUS: int64(units.Second)})
	if !strings.Contains(r.Error, "origins must be <= nodes-1 = 2") {
		t.Fatalf("relay origins error = %q", r.Error)
	}
	if r = scenario.RunSpec(scenario.Spec{App: "relay", Nodes: 3, Origins: 2, DurationUS: int64(units.Second)}); r.Error != "" {
		t.Fatalf("relay with nodes-1 origins: %s", r.Error)
	}
}

// TestSpecKnobValidation: an out-of-range app knob fails validation naming
// the field, instead of silently running the app default under a ConfigKey
// of its own.
func TestSpecKnobValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*scenario.Spec)
		wantErr string
	}{
		{"defaults", func(s *scenario.Spec) {}, ""},
		{"channel 11", func(s *scenario.Spec) { s.Channel = 11 }, ""},
		{"channel 26", func(s *scenario.Spec) { s.Channel = 26 }, ""},
		{"channel -3", func(s *scenario.Spec) { s.Channel = -3 }, "channel"},
		{"channel 10", func(s *scenario.Spec) { s.Channel = 10 }, "channel"},
		{"channel 27", func(s *scenario.Spec) { s.Channel = 27 }, "channel"},
		{"channel 99", func(s *scenario.Spec) { s.Channel = 99 }, "channel"},
		{"origins", func(s *scenario.Spec) { s.Origins = -1 }, "origins"},
		{"volts", func(s *scenario.Spec) { s.Volts = -3 }, "volts"},
		{"ram_buffer_entries", func(s *scenario.Spec) { s.RAMBufferEntries = -3 }, "ram_buffer_entries"},
		{"period_us", func(s *scenario.Spec) { s.PeriodUS = -5 }, "period_us"},
		{"hold_time_us", func(s *scenario.Spec) { s.HoldTimeUS = -1 }, "hold_time_us"},
		{"payload_bytes", func(s *scenario.Spec) { s.PayloadBytes = -1 }, "payload_bytes"},
		{"start_at_us", func(s *scenario.Spec) { s.StartAtUS = -1 }, "start_at_us"},
		{"check_period_us", func(s *scenario.Spec) { s.CheckPeriodUS = -1 }, "check_period_us"},
		{"receive_check_us", func(s *scenario.Spec) { s.ReceiveCheckUS = -1 }, "receive_check_us"},
		{"false_positive_hold_us", func(s *scenario.Spec) { s.FalsePositiveHoldUS = -1 }, "false_positive_hold_us"},
		{"wifi_burst_us", func(s *scenario.Spec) { s.WiFiBurstUS = -1 }, "wifi_burst_us"},
		{"wifi_gap_us", func(s *scenario.Spec) { s.WiFiGapUS = -1 }, "wifi_gap_us"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := scenario.Spec{App: "lpl", DurationUS: int64(units.Second)}
			c.mutate(&s)
			err := s.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

// marshalSweep serializes a full sweep (every result line plus the final
// aggregate) exactly like `quanto-trace sweep` does.
func marshalSweep(t *testing.T, results []*scenario.Result) []byte {
	t.Helper()
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(scenario.Aggregate(results)); err != nil {
		t.Fatal(err)
	}
	return []byte(sb.String())
}

// TestSweepWorkerCountInvariance pins the tentpole determinism contract:
// the complete serialized output of a sweep — every per-run result and the
// cross-seed aggregate — is byte-identical for one worker and eight.
func TestSweepWorkerCountInvariance(t *testing.T) {
	m := lplMatrix(2)
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}

	one := (&scenario.Runner{Workers: 1}).Run(specs)
	eight := (&scenario.Runner{Workers: 8}).Run(specs)

	for _, r := range one {
		if r.Error != "" {
			t.Fatalf("run %d failed: %s", r.Run, r.Error)
		}
	}
	b1, b8 := marshalSweep(t, one), marshalSweep(t, eight)
	if string(b1) != string(b8) {
		t.Fatalf("sweep output differs between -workers 1 and -workers 8:\n%s\nvs\n%s", b1, b8)
	}
}

// TestRunnerReuseMatchesRunSpec: a Runner worker analyzes every run it
// takes through one reused analyzer, so no dictionary, proxy set or table
// may leak from one run into the next. A mixed list of apps — each with its
// own dictionary and proxy activities — must give, run by run, the bytes
// RunSpec's fresh analyzer gives, whichever runs came before: forward and
// reversed, on one worker and on four.
func TestRunnerReuseMatchesRunSpec(t *testing.T) {
	second := int64(units.Second)
	specs := []scenario.Spec{
		{App: "blink", Seed: 1, DurationUS: 2 * second},
		{App: "bounce", Seed: 2, DurationUS: 2 * second},
		{App: "lpl", Seed: 3, Channel: 17, DurationUS: 3 * second}, // under Wi-Fi
		{App: "relay", Seed: 4, Nodes: 40, Placement: scenario.PlacementRGG, Origins: 3,
			PeriodUS: 100_000, DurationUS: 2 * second},
		{App: "sensesend", Seed: 5, DurationUS: 2 * second},
	}
	marshal := func(r *scenario.Result) string {
		t.Helper()
		if r.Error != "" {
			t.Fatalf("%s: %s", r.Spec.App, r.Error)
		}
		c := *r
		c.Run = 0 // the run's index in whichever list it came from
		b, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := make(map[string]string) // by app
	for _, s := range specs {
		want[s.App] = marshal(scenario.RunSpec(s))
	}
	reversed := slices.Clone(specs)
	slices.Reverse(reversed)
	for _, workers := range []int{1, 4} {
		for _, order := range [][]scenario.Spec{specs, reversed} {
			for _, r := range (&scenario.Runner{Workers: workers}).Run(order) {
				if got := marshal(r); got != want[r.Spec.App] {
					t.Errorf("workers=%d, list from %s to %s: %s Result differs from RunSpec's:\n%s\nwant\n%s",
						workers, order[0].App, order[len(order)-1].App, r.Spec.App, got, want[r.Spec.App])
				}
			}
		}
	}
}

// TestRunnerEmitsInMatrixOrder: OnResult must observe runs in matrix order
// regardless of which worker finishes first.
func TestRunnerEmitsInMatrixOrder(t *testing.T) {
	m := lplMatrix(3)
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	rn := &scenario.Runner{
		Workers:  4,
		OnResult: func(r *scenario.Result) { order = append(order, r.Run) },
	}
	results := rn.Run(specs)
	if len(order) != len(specs) {
		t.Fatalf("OnResult saw %d of %d runs", len(order), len(specs))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("emission order %v, want matrix order", order)
		}
	}
	for i, r := range results {
		if r == nil || r.Run != i {
			t.Fatalf("results[%d] = %+v", i, r)
		}
	}
}

// TestResultValuesRoundTrip: the flattened values drive aggregation; spot
// check a real run's headline numbers appear.
func TestResultValuesRoundTrip(t *testing.T) {
	r := scenario.RunSpec(scenario.Spec{App: "blink", Seed: 1, DurationUS: int64(4 * units.Second)})
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	v := r.Values()
	if v["total_uj"] != r.TotalUJ || v["entries"] != float64(r.Entries) {
		t.Errorf("values mismatch: %v vs result %+v", v, r)
	}
	if r.TotalUJ <= 0 || r.Entries == 0 || len(r.Nodes) != 1 {
		t.Errorf("implausible result: %+v", r)
	}
	if _, ok := v["metric:toggles_red"]; !ok {
		t.Errorf("blink metrics missing from values: %v", v)
	}
}
