package scenario_test

import (
	"io"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/units"
)

// TestNetworkPerNodeFeedMatchesMerged pins the two ways a NetworkAnalyzer
// can be fed against each other on simulated runs. Instance.Network hands
// each node's log straight to that node's analyzer; decoded files arrive as
// one merged stream that Consume demultiplexes. Each analyzer sees its own
// node's entries in log order either way, so every interval, state vector,
// regression coefficient and energy total must come out bit-equal. It also
// pins Instance.Finish, which folds the nodes one at a time through one
// reused analyzer, to the retained view: the same sums, to the bit.
func TestNetworkPerNodeFeedMatchesMerged(t *testing.T) {
	cases := []struct {
		name   string
		spec   scenario.Spec
		deaths int
	}{
		{
			// Mobility rebuilds the neighbor index every epoch, and nodes
			// 6 and 11 die about 2.2 s and 2.9 s in, leaving short logs
			// next to full ones.
			name: "ctp waypoint grid with deaths",
			spec: scenario.Spec{
				App: "relay", Seed: 3, DurationUS: int64(6 * units.Second),
				Nodes: 16, Origins: 4, PeriodUS: int64(250 * units.Millisecond),
				Placement: scenario.PlacementGrid, Routing: scenario.RoutingCTP,
				Mobility: scenario.MobilityWaypoint, SpeedMPS: 8,
				BatteryNodeUAH: map[string]float64{"6": 12, "11": 16},
			},
			deaths: 2,
		},
		{
			name: "multi-origin rgg relay",
			spec: scenario.Spec{
				App: "relay", Seed: 5, DurationUS: int64(3 * units.Second),
				Nodes: 16, Origins: 4, Placement: scenario.PlacementRGG,
			},
		},
		{
			name: "line bounce",
			spec: scenario.Spec{
				App: "bounce", Seed: 1, DurationUS: int64(3 * units.Second),
				Placement: scenario.PlacementLine,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, err := scenario.Build(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			in.Run()
			got, err := in.Network()
			if err != nil {
				t.Fatal(err)
			}
			res, err := in.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if res.Deaths != tc.deaths {
				t.Fatalf("deaths = %d, want %d", res.Deaths, tc.deaths)
			}
			checkFinishMatchesNetwork(t, in, res, got)

			w := in.World
			na := analysis.NewNetworkAnalyzer(w.Dict, analysis.DefaultOptions(), 0, 0)
			for _, n := range w.Nodes {
				na.AddNode(n.ID, n.Meter.PulseEnergy(), n.Volts)
			}
			m, err := w.Merged()
			if err != nil {
				t.Fatal(err)
			}
			for {
				s, err := m.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				na.Consume(s)
			}
			want, err := na.Finish()
			if err != nil {
				t.Fatal(err)
			}

			ids := slices.Sorted(maps.Keys(want.Nodes))
			if gotIDs := slices.Sorted(maps.Keys(got.Nodes)); !slices.Equal(gotIDs, ids) {
				t.Fatalf("nodes = %v, want %v", gotIDs, ids)
			}
			for _, id := range ids {
				g, wa := got.Nodes[id], want.Nodes[id]
				if !slices.Equal(g.Intervals, wa.Intervals) {
					t.Errorf("node %d: %d intervals differ from the merged feed's %d", id, len(g.Intervals), len(wa.Intervals))
				}
				if !reflect.DeepEqual(g.Vectors, wa.Vectors) {
					t.Errorf("node %d: state vectors differ", id)
				}
				if !slices.Equal(g.Reg.Predictors, wa.Reg.Predictors) || !sameBits(g.Reg.PowerMW, wa.Reg.PowerMW) ||
					math.Float64bits(g.Reg.ConstMW) != math.Float64bits(wa.Reg.ConstMW) {
					t.Errorf("node %d: regression %v + %v const, want %v + %v const",
						id, g.Reg.PowerMW, g.Reg.ConstMW, wa.Reg.PowerMW, wa.Reg.ConstMW)
				}
				if !sameBits(g.EnergyByActivity(), wa.EnergyByActivity()) {
					t.Errorf("node %d: EnergyByActivity differs", id)
				}
				if math.Float64bits(g.TotalEnergyUJ()) != math.Float64bits(wa.TotalEnergyUJ()) {
					t.Errorf("node %d: TotalEnergyUJ %v, want %v", id, g.TotalEnergyUJ(), wa.TotalEnergyUJ())
				}
			}
			if !sameBits(got.EnergyByActivity(), want.EnergyByActivity()) {
				t.Error("network EnergyByActivity differs")
			}
			if math.Float64bits(got.TotalEnergyUJ()) != math.Float64bits(want.TotalEnergyUJ()) {
				t.Errorf("network TotalEnergyUJ %v, want %v", got.TotalEnergyUJ(), want.TotalEnergyUJ())
			}
		})
	}
}

// checkFinishMatchesNetwork compares the Result Finish folded node by node
// with the retained per-node view, as float bits: the per-activity energy
// (folded by display name in label order, as Finish does), the network
// total, and each node's energy, average power and span.
func checkFinishMatchesNetwork(t *testing.T, in *scenario.Instance, res *scenario.Result, net *analysis.Network) {
	t.Helper()
	byLabel := net.EnergyByActivity()
	byName := make(map[string]float64)
	for _, l := range slices.Sorted(maps.Keys(byLabel)) {
		name := "Const."
		if l != analysis.ConstLabel {
			name = in.World.Dict.LabelName(l)
		}
		byName[name] += byLabel[l]
	}
	if !sameBits(res.ActivityUJ, byName) {
		t.Errorf("Finish's ActivityUJ %v, want Network's %v", res.ActivityUJ, byName)
	}
	if math.Float64bits(res.TotalUJ) != math.Float64bits(net.TotalEnergyUJ()) {
		t.Errorf("Finish's TotalUJ %v, want Network's %v", res.TotalUJ, net.TotalEnergyUJ())
	}
	if len(res.Nodes) != len(net.Nodes) {
		t.Fatalf("Finish has %d nodes, Network %d", len(res.Nodes), len(net.Nodes))
	}
	for _, nr := range res.Nodes {
		a := net.Nodes[core.NodeID(nr.Node)]
		if a == nil {
			t.Fatalf("Finish has node %d, Network does not", nr.Node)
		}
		if math.Float64bits(nr.EnergyUJ) != math.Float64bits(a.TotalEnergyUJ()) ||
			math.Float64bits(nr.AvgPowerMW) != math.Float64bits(a.AveragePowerMW()) || nr.SpanUS != a.Span() {
			t.Errorf("node %d: Finish %v uJ %v mW over %d us, Network %v uJ %v mW over %d us", nr.Node,
				nr.EnergyUJ, nr.AvgPowerMW, nr.SpanUS, a.TotalEnergyUJ(), a.AveragePowerMW(), a.Span())
		}
	}
}

// sameBits reports whether two maps hold the same keys with bit-identical
// values.
func sameBits[K comparable](a, b map[K]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
