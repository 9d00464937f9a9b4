package scenario_test

import (
	"encoding/json"
	"strings"
	"testing"

	_ "repro/internal/apps" // registers the paper's workloads
	"repro/internal/scenario"
	"repro/internal/units"
)

// TestSpecRoutingValidation pins the gate in front of the routing and
// mobility knobs: every way to half-specify the layered stack is rejected
// with a message naming the offending field.
func TestSpecRoutingValidation(t *testing.T) {
	routed := func() scenario.Spec {
		return scenario.Spec{
			App:        "relay",
			DurationUS: 1_000_000,
			Placement:  scenario.PlacementLine,
			Routing:    scenario.RoutingCTP,
		}
	}
	cases := []struct {
		name    string
		mutate  func(*scenario.Spec)
		wantErr string
	}{
		{"valid routed", func(s *scenario.Spec) {}, ""},
		{"unknown routing", func(s *scenario.Spec) { s.Routing = "aodv" }, "routing"},
		{"routing without placement", func(s *scenario.Spec) { s.Placement = "" }, "placement"},
		{"beacon period without routing", func(s *scenario.Spec) {
			s.Routing = ""
			s.BeaconPeriodMS = 500
		}, "beacon_period_ms"},
		{"negative beacon period", func(s *scenario.Spec) { s.BeaconPeriodMS = -1 }, "beacon_period_ms"},
		{"valid mobility", func(s *scenario.Spec) { s.Mobility = scenario.MobilityWaypoint }, ""},
		{"unknown mobility", func(s *scenario.Spec) { s.Mobility = "teleport" }, "mobility"},
		{"mobility without placement", func(s *scenario.Spec) {
			s.Routing = ""
			s.Placement = ""
			s.Mobility = scenario.MobilityDrift
		}, "placement"},
		{"speed without mobility", func(s *scenario.Spec) { s.SpeedMPS = 2 }, "speed_mps"},
		{"negative speed", func(s *scenario.Spec) {
			s.Mobility = scenario.MobilityDrift
			s.SpeedMPS = -1
		}, "speed_mps"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := routed()
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

// TestRoutedSpecDelivers drives the full stack from a Spec: a routed relay
// line forms a tree, moves data over it, and surfaces the routing plane's
// counters through the ordinary metrics channel.
func TestRoutedSpecDelivers(t *testing.T) {
	res := scenario.RunSpec(scenario.Spec{
		App:        "relay",
		Seed:       5,
		DurationUS: int64(10 * units.Second),
		Nodes:      6,
		Origins:    2,
		Placement:  scenario.PlacementLine,
		Routing:    scenario.RoutingCTP,
	})
	if res.Error != "" {
		t.Fatal(res.Error)
	}
	m := res.Metrics
	if m["delivered"] == 0 {
		t.Fatalf("routed spec delivered nothing: %v", m)
	}
	if m["net_routed"] != 5 {
		t.Errorf("net_routed = %v, want all 5 non-root nodes", m["net_routed"])
	}
	if m["net_beacons_tx"] == 0 || m["net_beacons_rx"] == 0 {
		t.Errorf("beacon plane silent: tx=%v rx=%v", m["net_beacons_tx"], m["net_beacons_rx"])
	}
	if m["net_path_etx_mean"] < 1 {
		t.Errorf("mean path ETX = %v, want ≥ 1 (at least one perfect hop)", m["net_path_etx_mean"])
	}
	if m["net_last_delivery_us"] < float64(8*units.Second) {
		t.Errorf("last delivery at %vµs, want near the end of the run", m["net_last_delivery_us"])
	}
}

// TestRoutedSpecDeterministic pins replay at the scenario layer: two
// identically-specified routed runs with mobility produce identical metrics —
// the routing plane and the movers draw only from derived, tagged streams.
func TestRoutedSpecDeterministic(t *testing.T) {
	spec := scenario.Spec{
		App:        "relay",
		Seed:       11,
		DurationUS: int64(6 * units.Second),
		Nodes:      9,
		Origins:    3,
		Placement:  scenario.PlacementGrid,
		Routing:    scenario.RoutingCTP,
		Mobility:   scenario.MobilityWaypoint,
		SpeedMPS:   8,
	}
	a := scenario.RunSpec(spec)
	b := scenario.RunSpec(spec)
	if a.Error != "" || b.Error != "" {
		t.Fatalf("errors: %q / %q", a.Error, b.Error)
	}
	if len(a.Metrics) != len(b.Metrics) {
		t.Fatalf("metric sets differ: %v vs %v", a.Metrics, b.Metrics)
	}
	for k, av := range a.Metrics {
		if bv := b.Metrics[k]; av != bv {
			t.Errorf("metric %q diverged: %v vs %v", k, av, bv)
		}
	}
	if a.Metrics["generated"] == 0 {
		t.Error("mobile routed run generated nothing")
	}
}

// TestRoutedCascadeSpec is the energy-aware rerouting acceptance test at the
// scenario layer: a 3×3 grid where only the middle node — the origin's
// cheapest way toward the far-corner sink — carries a finite battery. Its
// death must reroute the tree around the hole and deliveries must
// demonstrably outlive it.
func TestRoutedCascadeSpec(t *testing.T) {
	res := scenario.RunSpec(scenario.Spec{
		App:        "relay",
		Seed:       3,
		DurationUS: int64(40 * units.Second),
		Nodes:      9,
		Placement:  scenario.PlacementGrid,
		AreaM:      60, // 30 m pitch: corner-to-corner needs two hops
		Routing:    scenario.RoutingCTP,
		BatteryNodeUAH: map[string]float64{
			"5": 60, // the center relay: ~10 s at listening draw
		},
	})
	if res.Error != "" {
		t.Fatal(res.Error)
	}
	if res.Deaths != 1 {
		t.Fatalf("deaths = %d, want exactly the center node", res.Deaths)
	}
	m := res.Metrics
	// The reroute, not residual in-flight traffic, is what keeps packets
	// landing: the last delivery is seconds past the death.
	margin := float64(5 * units.Second)
	if m["net_last_delivery_us"] < float64(res.FirstDeathUS)+margin {
		t.Errorf("last delivery %vµs, death %dµs — reroute did not extend the network's useful life",
			m["net_last_delivery_us"], res.FirstDeathUS)
	}
	// At minimum the nodes routing through the center re-parented.
	if m["net_parent_changes"] < 2 {
		t.Errorf("net_parent_changes = %v, want ≥ 2 (initial joins are changes too)", m["net_parent_changes"])
	}
	if m["delivered"] == 0 {
		t.Error("nothing delivered")
	}

	// The Routes fold turns this run into the lifetime-extension report the
	// CLI prints: one group, one death, a positive extension.
	rr := scenario.Routes([]*scenario.Result{res})
	if rr.Empty() {
		t.Fatal("Routes fold skipped a routed run")
	}
	raw, err := rr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	if !strings.Contains(s, `"deaths":1`) {
		t.Errorf("route report missing the death: %s", s)
	}
	if rr2 := scenario.Routes([]*scenario.Result{{Metrics: map[string]float64{"delivered": 1}}}); !rr2.Empty() {
		t.Error("Routes folded an unrouted run")
	}
}

// TestRouteReportFold pins the route fold's semantics on synthetic routed
// Results: the delivery ratio is per run (not pooled), the extension
// statistic covers only runs that saw a death, and groups render in the
// order their first run arrived.
func TestRouteReportFold(t *testing.T) {
	if !scenario.Routes(nil).Empty() {
		t.Fatal("report of no runs not empty")
	}
	// Group b's ConfigKey sorts after group a's, so the order checked below
	// is arrival order, not key order.
	specB := scenario.Spec{App: "relay", Nodes: 9}
	specA := scenario.Spec{App: "relay", Nodes: 3}
	routed := func(spec scenario.Spec, generated, delivered, pathETX, lastUS float64, firstDeathUS int64) *scenario.Result {
		r := &scenario.Result{Spec: spec, Metrics: map[string]float64{
			"net_routed":           1,
			"generated":            generated,
			"delivered":            delivered,
			"net_path_etx_mean":    pathETX,
			"net_last_delivery_us": lastUS,
		}}
		if firstDeathUS >= 0 {
			r.Deaths, r.FirstDeathUS = 1, firstDeathUS
		}
		return r
	}
	rr := scenario.Routes([]*scenario.Result{
		routed(specB, 100, 80, 2, 30e6, -1),
		routed(specB, 100, 60, 2, 25e6, 10e6),
		routed(specA, 10, 10, 1, 30e6, -1),
	})
	if rr.Empty() {
		t.Fatal("report with routed runs reads empty")
	}

	raw, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Groups []struct {
			Key               string  `json:"key"`
			Runs              int     `json:"runs"`
			MeanDeliveryRatio float64 `json:"mean_delivery_ratio"`
			Deaths            int     `json:"deaths"`
			MeanExtensionS    float64 `json:"mean_extension_s"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != 2 || got.Groups[0].Key != specB.ConfigKey() || got.Groups[1].Key != specA.ConfigKey() {
		t.Fatalf("groups not in arrival order: %s", raw)
	}
	b := got.Groups[0]
	if b.Runs != 2 || b.MeanDeliveryRatio != 0.7 {
		t.Errorf("group b: runs=%d delivery=%v, want 2 runs at 0.7", b.Runs, b.MeanDeliveryRatio)
	}
	if b.Deaths != 1 || b.MeanExtensionS != 15 {
		t.Errorf("group b extension: deaths=%d mean=%v, want 1 death, +15 s", b.Deaths, b.MeanExtensionS)
	}
	if got.Groups[1].Deaths != 0 {
		t.Errorf("deathless group a reports %d deaths", got.Groups[1].Deaths)
	}

	out := rr.Render()
	if !strings.Contains(out, "+15.0s (n=1)") {
		t.Errorf("render lacks the extension column:\n%s", out)
	}
	if !strings.Contains(out, "100.0%") || !strings.Contains(out, "70.0%") {
		t.Errorf("render lacks delivery ratios:\n%s", out)
	}
}
