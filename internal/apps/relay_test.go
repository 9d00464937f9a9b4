package apps

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/medium"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/units"
)

func TestRelayDeliversEndToEnd(t *testing.T) {
	r := mustNew(t, NewRelay, scenario.Spec{Seed: 17})
	r.Run(10 * units.Second)
	gen, del := r.Stats()
	if gen < 8 {
		t.Errorf("generated = %d, want ~9-10", gen)
	}
	if del != gen {
		t.Errorf("delivered %d of %d packets", del, gen)
	}
}

func TestRelayChargesAllHopsToOrigin(t *testing.T) {
	r := mustNew(t, NewRelay, scenario.Spec{Seed: 17})
	r.Run(10 * units.Second)
	// Every hop — including the last, which never originates anything —
	// must have CPU time under the origin's Flood activity.
	net := analyzeNodes(t, r.World, r.Nodes...)
	for i, n := range r.Nodes {
		if i == 0 {
			continue
		}
		cpu := net.Nodes[n.ID].TimeByActivity()[power.ResCPU][r.Act]
		if cpu <= 0 {
			t.Errorf("hop %d has no CPU time under %v", i, r.Act)
		}
	}
}

func TestRelayNetworkWideFootprint(t *testing.T) {
	r := mustNew(t, NewRelay, scenario.Spec{Seed: 17})
	r.Run(10 * units.Second)
	net := analyzeNodes(t, r.World, r.Nodes...)

	// The Flood activity's footprint must span every node.
	fp := net.Footprint(r.Act)
	if len(fp) != len(r.Nodes) {
		t.Fatalf("footprint covers %d nodes, want %d: %+v", len(fp), len(r.Nodes), fp)
	}
	// Remote energy (spent off-origin) must be substantial: two of three
	// hops do forwarding work.
	remote := net.RemoteEnergyUJ(r.Act)
	total := net.EnergyByActivity()[r.Act]
	if remote <= 0 || remote >= total {
		t.Errorf("remote = %.1f of %.1f uJ", remote, total)
	}
	// The network report renders.
	rep := net.Report()
	if rep == "" {
		t.Error("empty network report")
	}
}

func TestNetworkEnergyConservation(t *testing.T) {
	r := mustNew(t, NewRelay, scenario.Spec{Seed: 17})
	r.Run(10 * units.Second)
	net := analyzeNodes(t, r.World, r.Nodes...)
	var perNodeSum float64
	for _, n := range r.Nodes {
		perNodeSum += net.Nodes[n.ID].TotalEnergyUJ()
	}
	if got := net.TotalEnergyUJ(); got != perNodeSum {
		t.Errorf("network total %.1f != per-node sum %.1f", got, perNodeSum)
	}
	// Per-activity network totals must sum to the per-node attribution
	// totals.
	var actSum float64
	for _, uj := range net.EnergyByActivity() {
		actSum += uj
	}
	var attribSum float64
	for _, n := range r.Nodes {
		for _, uj := range net.Nodes[n.ID].EnergyByActivity() {
			attribSum += uj
		}
	}
	if diff := actSum - attribSum; diff < -1 || diff > 1 {
		t.Errorf("activity sums differ by %.3f uJ", diff)
	}
}

// TestRelayLongerLine runs lines end to end. The long one has 259 hops on
// the broadcast medium — every node hears every frame, only the addressed
// next hop forwards — more than a one-byte hop budget could carry: the
// budget must never drop a packet on a loop-free chain, whatever its length.
// Its period outlasts the line's ~4 s end-to-end latency, so the one packet
// it generates lands before the run ends.
func TestRelayLongerLine(t *testing.T) {
	for _, tc := range []struct {
		hops        int
		period, run units.Ticks
	}{
		{5, units.Second, 8 * units.Second},
		{260, 10 * units.Second, 22 * units.Second},
	} {
		t.Run(fmt.Sprintf("nodes=%d", tc.hops), func(t *testing.T) {
			r := mustNew(t, NewRelay, scenario.Spec{Seed: 23, Nodes: tc.hops, PeriodUS: int64(tc.period)})
			r.Run(tc.run)
			gen, del := r.Stats()
			if gen == 0 || del != gen {
				t.Errorf("%d-node line: generated %d delivered %d (dropped %d, hop budget %d)",
					tc.hops, gen, del, r.Dropped(), r.TTLDrops())
			}
			// The origin label must appear in the last node's log.
			last := r.Nodes[len(r.Nodes)-1]
			found := false
			for _, e := range last.Log.Entries {
				if e.Type == core.EntryActivityBind && core.Label(e.Val) == r.Act {
					found = true
					break
				}
			}
			if !found {
				t.Error("origin activity never reached the last hop")
			}
		})
	}
}

// TestCollectRelayDelivers smoke-tests the routed forwarding plane on the
// broadcast medium: every node hears every node, so the tree collapses to
// one hop and every generated packet that finds the radio idle lands at the
// sink.
func TestCollectRelayDelivers(t *testing.T) {
	r := mustNew(t, NewRelay, scenario.Spec{Seed: 1, Nodes: 4, Routing: scenario.RoutingCTP})
	if r.Tree == nil {
		t.Fatal("collect relay has no tree")
	}
	r.Run(20 * units.Second)

	gen, del := r.Stats()
	if gen == 0 || del == 0 {
		t.Fatalf("generated=%d delivered=%d, want both > 0", gen, del)
	}
	// The origin has no parent until the root's first beacon propagates, so
	// early packets drop as unrouted — but once the tree forms, deliveries
	// track generation.
	if del+r.NoRoute()+r.Dropped()+r.TTLDrops() < gen {
		t.Errorf("accounting leak: gen=%d del=%d noroute=%d dropped=%d ttl=%d",
			gen, del, r.NoRoute(), r.Dropped(), r.TTLDrops())
	}
	if r.LastDeliveredAt() < 18*units.Second {
		t.Errorf("last delivery at %v, want near the end of the 20 s run", r.LastDeliveredAt())
	}
	if s := r.Tree.Stats(); s.Routed != 3 {
		t.Errorf("routed = %d, want 3", s.Routed)
	}
}

// TestRelayUnroutedHasNoTree pins the fixed chain's side of the shared
// forwarding path: no collection tree, no net_* metrics, and — under load
// heavy enough to drop packets on busy radios — no packet dropped for want
// of a route or an exhausted hop budget: the static route always exists and
// never loops.
func TestRelayUnroutedHasNoTree(t *testing.T) {
	in, err := scenario.Build(scenario.Spec{
		App: "relay", Seed: 1, Nodes: 6, Origins: 3,
		PeriodUS: int64(20 * units.Millisecond), DurationUS: int64(3 * units.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Run()
	r := in.App.(*Relay)
	if r.Tree != nil {
		t.Fatal("unrouted relay grew a tree")
	}
	for k := range in.Metrics() {
		if strings.HasPrefix(k, "net_") {
			t.Errorf("unrouted relay emits routing metric %q", k)
		}
	}
	gen, del := r.Stats()
	if gen == 0 || del == 0 || r.Dropped() == 0 {
		t.Fatalf("generated=%d delivered=%d dropped=%d, want all > 0", gen, del, r.Dropped())
	}
	if r.NoRoute() != 0 || r.TTLDrops() != 0 {
		t.Errorf("fixed chain dropped %d packets for no route, %d for the hop budget", r.NoRoute(), r.TTLDrops())
	}
}

// TestCollectCascade is the energy-aware rerouting test end to end on the
// data plane: a diamond where the origin's first parent is the relay whose
// battery depletes mid-run. The death becomes a topology event, the origin
// reroutes onto the surviving relay, and deliveries demonstrably continue
// past the death — where the fixed chain would have severed.
func TestCollectCascade(t *testing.T) {
	r := mustNew(t, NewRelay, scenario.Spec{
		Seed: 9, Nodes: 4, Routing: scenario.RoutingCTP,
		BatteryNodeUAH: map[string]float64{"3": 60}, // ~10 s at listening draw
	})
	// The sink (node 4, the tree root) sits at the origin of the plane; the
	// origin (node 1) is out of its range and must relay through 2 or 3.
	// Relay 3's staggered beacon phase advertises a route first, so the
	// origin joins 3 — the node about to die.
	pos := []medium.Position{
		{X: 60, Y: 0},  // origin
		{X: 30, Y: 0},  // relay 2: survivor
		{X: 30, Y: 25}, // relay 3: finite battery
		{X: 0, Y: 0},   // sink / tree root
	}
	if err := r.World.ConfigureSpatial(medium.SpatialConfig{TxRangeM: 50, TxPowerDBm: 10, Seed: 9}, pos); err != nil {
		t.Fatal(err)
	}
	r.Run(40 * units.Second)

	if len(r.World.Deaths) != 1 || r.World.Deaths[0].Node != 3 {
		t.Fatalf("deaths = %+v, want exactly node 3", r.World.Deaths)
	}
	died := r.World.Deaths[0].At
	origin := r.Tree.Router(0)
	if p, ok := origin.Parent(); !ok || p != 2 {
		t.Fatalf("origin parent after death = %d (ok=%v), want survivor 2", p, ok)
	}
	if s := origin.Stats(); s.ParentChanges < 2 {
		t.Errorf("origin parent changes = %d, want ≥ 2 (join + reroute)", s.ParentChanges)
	}
	// The reroute is what extends delivery past the death: the last packet
	// lands well after the parent died, not just before it.
	if r.LastDeliveredAt() < died+5*units.Second {
		t.Errorf("last delivery %v barely outlives the death at %v — reroute did not restore delivery",
			r.LastDeliveredAt(), died)
	}
	if _, del := r.Stats(); del == 0 {
		t.Error("nothing delivered")
	}
}

// TestCollectDeterministic pins that two identically-seeded routed runs
// produce identical counters.
func TestCollectDeterministic(t *testing.T) {
	run := func() (uint64, uint64, uint64, units.Ticks) {
		r := mustNew(t, NewRelay, scenario.Spec{Seed: 7, Nodes: 5, Routing: scenario.RoutingCTP})
		if err := r.World.ConfigureSpatial(medium.SpatialConfig{TxRangeM: 50, TxPowerDBm: 10, Seed: 7},
			medium.PlaceLine(5, 80)); err != nil {
			t.Fatal(err)
		}
		r.Run(15 * units.Second)
		gen, del := r.Stats()
		return gen, del, r.Tree.Stats().ParentChanges, r.LastDeliveredAt()
	}
	g1, d1, p1, l1 := run()
	g2, d2, p2, l2 := run()
	if g1 != g2 || d1 != d2 || p1 != p2 || l1 != l2 {
		t.Fatalf("replay diverged: (%d %d %d %v) vs (%d %d %d %v)", g1, d1, p1, l1, g2, d2, p2, l2)
	}
	if d1 == 0 {
		t.Error("routed line delivered nothing")
	}
}
