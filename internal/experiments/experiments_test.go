package experiments

import (
	"math"
	"strings"
	"testing"
)

const testSeed = 1

func value(t *testing.T, r *Report, key string) float64 {
	t.Helper()
	v, ok := r.Values[key]
	if !ok {
		t.Fatalf("%s: missing value %q (have %v)", r.ID, key, r.Values)
	}
	return v
}

func within(t *testing.T, r *Report, key string, want, tolFrac float64) {
	t.Helper()
	got := value(t, r, key)
	if math.Abs(got-want) > tolFrac*math.Abs(want) {
		t.Errorf("%s: %s = %.4g, want %.4g (+-%.0f%%)", r.ID, key, got, want, tolFrac*100)
	}
}

func TestTable1Inventory(t *testing.T) {
	r := Table1()
	if value(t, r, "sinks") < 17 {
		t.Error("missing sinks")
	}
	if value(t, r, "states") < 35 {
		t.Error("missing states")
	}
	within(t, r, "cpu_active_uA", 500, 0.001)
	within(t, r, "rx_listen_uA", 19700, 0.001)
	within(t, r, "led0_uA", 4300, 0.001)
	if !strings.Contains(r.Text, "TX (-25 dBm)") {
		t.Error("TX power levels missing from rendered table")
	}
}

func TestFigure10Linearity(t *testing.T) {
	r, err := Figure10(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: I = 2.77 f - 0.05, R^2 = 0.99995.
	within(t, r, "slope_mA_per_kHz", 2.77, 0.02)
	if r2 := value(t, r, "r2"); r2 < 0.999 {
		t.Errorf("R^2 = %v, want > 0.999", r2)
	}
	if value(t, r, "states") != 8 {
		t.Error("must observe all 8 Blink steady states")
	}
}

func TestTable2CalibrationMatchesPaper(t *testing.T) {
	r, err := Table2(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Pi: LED0 2.50, LED1 2.23, LED2 0.83, Const 0.79 mA.
	within(t, r, "led0_mA", 2.50, 0.03)
	within(t, r, "led1_mA", 2.23, 0.03)
	within(t, r, "led2_mA", 0.83, 0.05)
	within(t, r, "const_mA", 0.79, 0.06)
	if re := value(t, r, "rel_err"); re > 0.01 {
		t.Errorf("relative error = %.4f, want < 1%% (paper: 0.83%%)", re)
	}
}

func TestFigure11Profile(t *testing.T) {
	r, err := Figure11(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 521 mJ over 48 s is ~10.9 mW.
	within(t, r, "avg_power_mW", 10.86, 0.05)
	if v := value(t, r, "recon_vs_meter_rel_err"); v > 0.001 {
		t.Errorf("reconstruction error = %v, want < 0.1%% (paper: 0.004%%)", v)
	}
	if value(t, r, "transition_found") != 1 {
		t.Error("all-on -> all-off transition not found")
	}
	if !strings.Contains(r.Text, "1:Red") || !strings.Contains(r.Text, "1:VTimer") {
		t.Error("timeline legend missing expected activities")
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	r, err := Table3(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Paper (b): LED0 2.51, LED1 2.24, LED2 0.83, CPU 1.43 mA.
	within(t, r, "led0_mA", 2.51, 0.03)
	within(t, r, "led1_mA", 2.24, 0.03)
	within(t, r, "led2_mA", 0.83, 0.05)
	within(t, r, "cpu_mA", 1.43, 0.25) // small active time: noisier estimate
	// Paper (c)/(d): total 521.23 mJ; Red 180.78, Green 161.10, Blue 59.86.
	within(t, r, "total_mJ", 521.2, 0.03)
	within(t, r, "red_mJ", 180.8, 0.03)
	within(t, r, "green_mJ", 161.1, 0.03)
	within(t, r, "blue_mJ", 59.9, 0.04)
	// Energy must be conserved between views.
	if math.Abs(value(t, r, "activity_total_mJ")-value(t, r, "total_mJ")) > 0.5 {
		t.Error("per-activity and per-resource totals disagree")
	}
}

func TestFigure12CrossNodeTracking(t *testing.T) {
	r, err := Figure12(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if value(t, r, "reception_bind_found") != 1 {
		t.Error("no reception bind found")
	}
	if value(t, r, "remote_tx_found") != 1 {
		t.Error("no transmission under the remote activity found")
	}
	if value(t, r, "cpu_ms_for_remote") <= 0 {
		t.Error("no CPU time attributed to the remote activity")
	}
	if value(t, r, "node1_rx") < 3 {
		t.Error("too few packets exchanged")
	}
	if !strings.Contains(r.Text, "4:BounceApp") {
		t.Error("remote activity missing from timeline")
	}
}

func TestFigure13InterferenceShape(t *testing.T) {
	r, err := Figure13(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 17.8% false positives on ch 17, none on ch 26.
	fp17 := value(t, r, "fp17")
	if fp17 < 0.10 || fp17 > 0.28 {
		t.Errorf("fp17 = %.3f, want ~0.178", fp17)
	}
	if value(t, r, "fp26") != 0 {
		t.Error("channel 26 should see no false positives")
	}
	// Paper: duty 5.58% vs 2.22%.
	within(t, r, "duty26", 0.0222, 0.25)
	duty17 := value(t, r, "duty17")
	if duty17 < 0.04 || duty17 > 0.09 {
		t.Errorf("duty17 = %.4f, want ~0.056", duty17)
	}
	// Power ordering and rough factor (paper: 1.43/0.919 = 1.56).
	ratio := value(t, r, "power_ratio")
	if ratio < 1.2 || ratio > 4.0 {
		t.Errorf("power ratio = %.2f, want 1.2-4.0", ratio)
	}
}

func TestFigure14WakeupDetail(t *testing.T) {
	r, err := Figure14(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if value(t, r, "found_both") != 1 {
		t.Fatal("did not find both a normal wake-up and a false positive")
	}
	// Paper: listen mode 61.8 mW at 3.35 V.
	within(t, r, "rx_listen_mW", 61.8, 0.08)
	// Normal wake-up ~11 ms; false positive ~100 ms hold.
	within(t, r, "normal_ms", 11, 0.3)
	fp := value(t, r, "fp_ms")
	if fp < 90 || fp > 130 {
		t.Errorf("fp hold = %.1f ms, want ~100-113", fp)
	}
}

func TestFigure15SixteenHertz(t *testing.T) {
	r, err := Figure15(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	within(t, r, "rate_hz", 16, 0.05)
	if value(t, r, "fixed_rate_hz") != 0 {
		t.Error("fixed configuration still calibrates")
	}
	if value(t, r, "entries_buggy") <= value(t, r, "entries_fixed") {
		t.Error("buggy configuration should log more entries")
	}
}

func TestFigure16DMASpeedup(t *testing.T) {
	r, err := Figure16(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if sp := value(t, r, "speedup"); sp < 2 {
		t.Errorf("speedup = %.2f, want >= 2 (paper: at least twice as fast)", sp)
	}
	if value(t, r, "cpu_normal_ms") <= value(t, r, "cpu_dma_ms") {
		t.Error("interrupt mode should consume more CPU than DMA")
	}
}

func TestTable4Costs(t *testing.T) {
	r, err := Table4(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	within(t, r, "cost_cycles", 102, 0.001)
	// Paper: 597 entries, 71.05% of active CPU, 0.12% of total.
	entries := value(t, r, "entries")
	if entries < 400 || entries > 1000 {
		t.Errorf("entries = %v, want a few hundred", entries)
	}
	share := value(t, r, "log_share_active")
	if share < 0.5 || share > 0.9 {
		t.Errorf("logging share of active CPU = %.3f, want ~0.71", share)
	}
	total := value(t, r, "log_share_total")
	if total > 0.005 {
		t.Errorf("logging share of total time = %.4f, want ~0.0012", total)
	}
	// Paper: 0.41 mJ of logging energy.
	e := value(t, r, "log_energy_mJ")
	if e < 0.2 || e > 1.0 {
		t.Errorf("logging energy = %.3f mJ, want ~0.45", e)
	}
}

func TestTable5LoC(t *testing.T) {
	r, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if value(t, r, "total_loc") < 1000 {
		t.Error("implausibly small instrumentation size")
	}
	if !strings.Contains(r.Text, "CC2420 Radio") {
		t.Error("radio row missing")
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	reports, err := All(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(Exhibits) {
		t.Fatalf("ran %d experiments, want %d", len(reports), len(Exhibits))
	}
	seen := make(map[string]bool)
	for i, r := range reports {
		if r.ID != Exhibits[i].ID {
			t.Errorf("report %d is %s, want exhibit %s", i, r.ID, Exhibits[i].ID)
		}
		if r.Text == "" {
			t.Errorf("%s: empty text", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
		if s := r.String(); !strings.Contains(s, r.Title) {
			t.Errorf("%s: String() missing title", r.ID)
		}
	}
}

func TestNetworkFootprint(t *testing.T) {
	r, err := NetworkFootprint(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if value(t, r, "delivered") != value(t, r, "generated") {
		t.Error("packet loss in the relay")
	}
	if value(t, r, "nodes_in_footprint") != 4 {
		t.Error("footprint must span all 4 nodes")
	}
	frac := value(t, r, "remote_frac")
	if frac < 0.5 || frac > 1.01 {
		t.Errorf("remote fraction = %.3f, want most energy spent remotely", frac)
	}
	if !strings.Contains(r.Text, "Remote share") {
		t.Error("report missing remote share line")
	}
}

// TestAblationsShowWhatEachChoiceBuys checks the direction of each
// ablation's comparison: the paper's choice must beat its alternative on
// the exhibit's own score.
func TestAblationsShowWhatEachChoiceBuys(t *testing.T) {
	for _, c := range []struct {
		run           func(uint64) (*Report, error)
		better, worse string
		minGain       float64
	}{
		// Weights: the weighted fit's LED0 error must be the smaller, by
		// an order of magnitude (1.4 against 209 uA at seed 1).
		{AblationWeights, "weighted_err_uA", "unweighted_err_uA", 10},
		// Proxy binding moves node 1's receive work onto node 4's activity.
		{AblationProxy, "remote_cpu_ms_unbound", "remote_cpu_ms_bound", 2},
		// The equal split halves the shared 4 s; first-takes-all keeps it.
		{AblationSplit, "actA_mJ_equal_split", "actA_mJ_first_split", 1.25},
		// Counting keeps a handful of keys where the log keeps every entry.
		{AblationCounters, "counter_keys", "log_bytes", 100},
	} {
		r, err := c.run(testSeed)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := value(t, r, c.better), value(t, r, c.worse)
		if !(lo*c.minGain < hi) {
			t.Errorf("%s: %s = %.4g, %s = %.4g; want the second over %.4gx the first", r.ID, c.better, lo, c.worse, hi, c.minGain)
		}
	}
	r, err := AblationSplit(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	// A holds the receiver alone for 2 s and shares it for 4 s: half the
	// shared energy moves, so first-takes-all charges A 1.5x the split.
	if eq, first := value(t, r, "actA_mJ_equal_split"), value(t, r, "actA_mJ_first_split"); math.Abs(first/eq-1.5) > 0.01 {
		t.Errorf("first-takes-all / equal split = %.4f, want 1.5", first/eq)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	a, err := Table3(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table3(7)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Values {
		if b.Values[k] != v {
			t.Errorf("value %q differs across identical runs: %v vs %v", k, v, b.Values[k])
		}
	}
	if a.Text != b.Text {
		t.Error("rendered text differs across identical runs")
	}
}

func TestDifferentSeedsStillMatchPaperShape(t *testing.T) {
	for _, seed := range []uint64{2, 3} {
		r, err := Table2(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		within(t, r, "led0_mA", 2.50, 0.04)
		within(t, r, "led1_mA", 2.23, 0.04)
	}
}
