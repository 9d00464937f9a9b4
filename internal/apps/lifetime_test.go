package apps

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/units"
)

// TestRelayCascadeAfterUpstreamDeath pins the acceptance scenario for the
// energy-budget layer: in a 3-hop relay line where only the middle hop has a
// finite battery, the middle hop depletes mid-run (it listens constantly and
// forwards every packet), and from that instant the sink — which is still
// perfectly healthy — receives nothing more. The death of one node changes
// the network's behavior, not just its accounting.
func TestRelayCascadeAfterUpstreamDeath(t *testing.T) {
	const dur = 60 * units.Second
	run := func(batteryNode2 float64) (*scenario.Result, *Relay, *scenario.Instance) {
		spec := scenario.Spec{
			App:        "relay",
			Seed:       3,
			DurationUS: int64(dur),
			Nodes:      3,
			PeriodUS:   int64(units.Second),
		}
		if batteryNode2 > 0 {
			spec.BatteryNodeUAH = map[string]float64{"2": batteryNode2}
		}
		in, err := scenario.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		in.Run()
		r, err := in.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return r, in.App.(*Relay), in
	}

	// Baseline: infinite supplies, essentially every packet delivered.
	_, baseRelay, _ := run(0)
	baseGen, baseDel := baseRelay.Stats()
	if baseDel < baseGen-2 || baseDel == 0 {
		t.Fatalf("baseline relay unhealthy: generated %d, delivered %d", baseGen, baseDel)
	}

	// Starved: node 2 gets ~100 uAh; at ~19 mA listen draw it dies in
	// roughly 18 s.
	res, relay, in := run(100)
	n2 := in.World.Node(2)
	diedAt, died := n2.DiedAt()
	if !died {
		t.Fatal("middle hop did not deplete")
	}
	if diedAt <= 0 || diedAt >= dur {
		t.Fatalf("implausible death time %v", diedAt)
	}
	for _, id := range []core.NodeID{1, 3} {
		if n := in.World.Node(id); !n.Alive() {
			t.Fatalf("node %d should have survived", id)
		}
	}

	gen, del := relay.Stats()
	if gen < baseGen-2 {
		t.Fatalf("origin should keep generating after the cascade: %d vs baseline %d", gen, baseGen)
	}
	if del >= baseDel/2 {
		t.Fatalf("sink deliveries did not collapse: %d of baseline %d", del, baseDel)
	}
	// Deliveries that did happen must all predate the death: the sink
	// toggles LED1 per delivery, so its log must hold no LED1 edge after
	// the death instant.
	sink := in.World.Node(3)
	for _, e := range sink.Log.Entries {
		if e.Res == power.ResLED1 && int64(e.Time) > int64(diedAt)+int64(units.Second) {
			t.Fatalf("sink delivered at %d us, after upstream death at %d us", e.Time, diedAt)
		}
	}

	// The Result carries the lifetime view: node 2 died with zero margin,
	// nodes 1/3 have no battery fields.
	if res.Deaths != 1 || res.FirstDeathUS != int64(diedAt) {
		t.Fatalf("result deaths=%d first=%d, want 1 at %d", res.Deaths, res.FirstDeathUS, diedAt)
	}
	for _, nr := range res.Nodes {
		switch nr.Node {
		case 2:
			if !nr.Died || nr.DiedAtUS != int64(diedAt) || nr.LifetimeUS != int64(diedAt) || nr.MarginFrac != 0 {
				t.Fatalf("node 2 lifetime fields wrong: %+v", nr)
			}
		default:
			if nr.BatteryUAH != 0 || nr.Died {
				t.Fatalf("node %d should have no battery outcome: %+v", nr.Node, nr)
			}
		}
	}
}

// lifetimeMatrix is the acceptance sweep: battery capacity × LPL check
// period, replicated across seeds.
func lifetimeMatrix(seeds int) *scenario.Matrix {
	return &scenario.Matrix{
		Base: scenario.Spec{
			App:        "lpl",
			Seed:       5,
			DurationUS: int64(30 * units.Second),
			Channel:    17,
		},
		Sweep: map[string][]any{
			"battery_uah":     {4.0, 8.0},
			"check_period_us": {int64(250 * units.Millisecond), int64(500 * units.Millisecond)},
		},
		Seeds: seeds,
	}
}

// TestLifetimeSweepWorkerInvariance pins the acceptance criterion: a
// battery-capacity × LPL-interval matrix produces per-node lifetimes with
// CI95 bounds, byte-identical for any worker count.
func TestLifetimeSweepWorkerInvariance(t *testing.T) {
	specs, err := lifetimeMatrix(4).Expand()
	if err != nil {
		t.Fatal(err)
	}
	marshal := func(results []*scenario.Result) string {
		var sb strings.Builder
		enc := json.NewEncoder(&sb)
		for _, r := range results {
			if r.Error != "" {
				t.Fatalf("run %d failed: %s", r.Run, r.Error)
			}
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Encode(scenario.Aggregate(results)); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(scenario.Lifetimes(results)); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	one := marshal((&scenario.Runner{Workers: 1}).Run(specs))
	eight := marshal((&scenario.Runner{Workers: 8}).Run(specs))
	if one != eight {
		t.Fatal("lifetime sweep output differs between -workers 1 and -workers 8")
	}
}

// TestLifetimeSweepProducesCI95 checks the aggregate carries a seed-spread
// lifetime statistic per configuration: every group has lifetime_us:node1
// with one sample per seed, and at least one configuration shows genuine
// cross-seed spread (nonzero CI95) — LPL death times depend on the
// interference pattern, which the seed drives.
func TestLifetimeSweepProducesCI95(t *testing.T) {
	const seeds = 4
	specs, err := lifetimeMatrix(seeds).Expand()
	if err != nil {
		t.Fatal(err)
	}
	results := (&scenario.Runner{}).Run(specs)
	ag := scenario.Aggregate(results)
	groups := ag.Groups()
	if len(groups) != 4 {
		t.Fatalf("got %d groups, want 4 (2 capacities x 2 periods)", len(groups))
	}
	anySpread := false
	for _, g := range groups {
		st := g.Stat("lifetime_us:node1")
		if st == nil {
			t.Fatalf("group %s lacks lifetime_us:node1 (metrics: %v)", g.Key, g.Metrics())
		}
		if st.N() != seeds {
			t.Fatalf("group %s lifetime stat has %d samples, want %d", g.Key, st.N(), seeds)
		}
		if st.CI95() > 0 {
			anySpread = true
		}
		if d := g.Stat("deaths"); d == nil || d.N() != seeds {
			t.Fatalf("group %s lacks a per-replica deaths stat", g.Key)
		}
	}
	if !anySpread {
		t.Fatal("no configuration shows cross-seed lifetime spread; CI95 meaningless")
	}

	// The lifetime report mirrors the same fold per node.
	lr := scenario.Lifetimes(results)
	if lr.Empty() {
		t.Fatal("lifetime report empty for a battery sweep")
	}
	if !strings.Contains(lr.Render(), "node") {
		t.Fatal("lifetime render missing table header")
	}
}

// TestHarvestSweepKnob: the declarative harvest block reaches the power
// layer — a harvested LPL node outlives an identical unharvested one.
func TestHarvestSweepKnob(t *testing.T) {
	base := scenario.Spec{
		App:        "lpl",
		Seed:       9,
		DurationUS: int64(40 * units.Second),
		Channel:    26,
		BatteryUAH: 4,
	}
	plain := scenario.RunSpec(base)
	if plain.Error != "" {
		t.Fatal(plain.Error)
	}
	harvested := base
	harvested.Harvest = &scenario.HarvestSpec{Profile: "constant", UA: 700}
	helped := scenario.RunSpec(harvested)
	if helped.Error != "" {
		t.Fatal(helped.Error)
	}
	pl, hl := plain.Nodes[0], helped.Nodes[0]
	if !pl.Died {
		t.Fatal("unharvested node should die within the run")
	}
	if hl.Died && hl.LifetimeUS <= pl.LifetimeUS {
		t.Fatalf("harvest did not extend life: %d -> %d us", pl.LifetimeUS, hl.LifetimeUS)
	}
}

// TestBatteryNodeOverridesReachEveryTopology: battery_node_uah keys follow
// each app's real node ids — dma's receiver is node 2, timerbug's single
// node is the figure's id 32 — so a per-node override must land on exactly
// that mote and nowhere else.
func TestBatteryNodeOverridesReachEveryTopology(t *testing.T) {
	r := scenario.RunSpec(scenario.Spec{
		App:            "dma",
		DurationUS:     int64(2 * units.Second),
		BatteryNodeUAH: map[string]float64{"2": 5000},
	})
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	for _, nr := range r.Nodes {
		switch nr.Node {
		case 1:
			if nr.BatteryUAH != 0 {
				t.Fatalf("dma sender should have infinite supply: %+v", nr)
			}
		case 2:
			if nr.BatteryUAH != 5000 {
				t.Fatalf("dma receiver battery = %v, want 5000", nr.BatteryUAH)
			}
		}
	}

	r = scenario.RunSpec(scenario.Spec{
		App:            "timerbug",
		DurationUS:     int64(2 * units.Second),
		BatteryNodeUAH: map[string]float64{"32": 5000},
	})
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	if len(r.Nodes) != 1 || r.Nodes[0].Node != 32 || r.Nodes[0].BatteryUAH != 5000 {
		t.Fatalf("timerbug node-32 battery override missed: %+v", r.Nodes)
	}
}

// TestDeathPolicyHaltWorld: under halt-world the run ends at the first
// death, so the surviving nodes' spans truncate there too.
func TestDeathPolicyHaltWorld(t *testing.T) {
	spec := scenario.Spec{
		App:            "relay",
		Seed:           3,
		DurationUS:     int64(60 * units.Second),
		Nodes:          3,
		PeriodUS:       int64(units.Second),
		BatteryNodeUAH: map[string]float64{"2": 50},
		DeathPolicy:    scenario.DeathPolicyHaltWorld,
	}
	r := scenario.RunSpec(spec)
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	if r.Deaths != 1 {
		t.Fatalf("deaths = %d, want 1", r.Deaths)
	}
	if r.SpanUS > r.FirstDeathUS+int64(units.Second) {
		t.Fatalf("world ran on after halt-world death: span %d, death %d", r.SpanUS, r.FirstDeathUS)
	}
}
