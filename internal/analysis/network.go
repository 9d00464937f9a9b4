package analysis

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
)

// Network aggregates per-node analyses into the network-wide view the paper
// motivates: "network-wide, how much energy do network services consume?"
// Because activity labels carry their origin node, summing per-activity
// energy across nodes attributes every joule — wherever it was spent — to
// the activity (and node) that caused it. This is the "butterfly effect"
// tracking of Section 5.3: a local action's network-wide energy footprint.
type Network struct {
	Nodes map[core.NodeID]*Analysis
	Dict  *core.Dictionary
}

// EnergyByActivity sums each activity's energy across every node in the
// network. Constant-term energy stays per-node (it is unattributable board
// draw) and is reported under ConstLabel.
func (n *Network) EnergyByActivity() map[core.Label]float64 {
	out := make(map[core.Label]float64)
	for _, id := range n.nodeIDs() {
		addEnergyByActivity(out, n.Nodes[id].ByActivity)
	}
	return out
}

// addEnergyByActivity adds one node's per-activity energy, its ByActivity,
// into a network-wide sum. Float addition is not associative, so a sum is
// reproducible bit for bit only when the nodes are added in one fixed
// order: every network-wide sum here adds them in ascending node id, as a
// caller that folds nodes one at a time must too (Instance.Finish does).
// Each label appears once per node, so the order of one node's labels does
// not matter.
func addEnergyByActivity(sum map[core.Label]float64, node []LabelEnergy) {
	for _, s := range node {
		sum[s.Label] += s.UJ
	}
}

// RemoteEnergyUJ returns, for the activity labeled l, how much of its
// network-wide energy was spent on nodes other than its origin — the
// quantity that is invisible to any single-node profiler.
func (n *Network) RemoteEnergyUJ(l core.Label) float64 {
	var total float64
	for _, id := range n.nodeIDs() {
		if id == l.Origin() {
			continue
		}
		total += n.Nodes[id].EnergyByActivity()[l]
	}
	return total
}

// TotalEnergyUJ sums measured energy across all nodes.
func (n *Network) TotalEnergyUJ() float64 {
	var total float64
	for _, id := range n.nodeIDs() {
		total += n.Nodes[id].TotalEnergyUJ()
	}
	return total
}

// NodeShare describes one node's contribution to an activity's footprint.
type NodeShare struct {
	Node     core.NodeID
	EnergyUJ float64
}

// Footprint returns the per-node decomposition of one activity's
// network-wide energy, ordered by node id.
func (n *Network) Footprint(l core.Label) []NodeShare {
	var out []NodeShare
	for _, id := range n.nodeIDs() {
		uj := n.Nodes[id].EnergyByActivity()[l]
		if uj > 0 {
			out = append(out, NodeShare{Node: id, EnergyUJ: uj})
		}
	}
	return out
}

// Report renders the network-wide activity table, highest energy first and
// equal energies in label order. It sums the nodes' breakdowns in node
// order, so its totals are bit-identical to EnergyByActivity's and
// RemoteEnergyUJ's.
func (n *Network) Report() string {
	ids := n.nodeIDs()
	perNode := make([]map[core.Label]float64, len(ids))
	byAct := make(map[core.Label]float64)
	for i, id := range ids {
		perNode[i] = n.Nodes[id].EnergyByActivity()
		addEnergyByActivity(byAct, n.Nodes[id].ByActivity)
	}
	labels := byEnergy(byAct)
	s := fmt.Sprintf("%-22s %12s %12s\n", "Activity", "Total (mJ)", "Remote (mJ)")
	for _, l := range labels {
		name := "Const."
		remote := 0.0
		if l != ConstLabel {
			name = n.Dict.LabelName(l)
			for i, id := range ids {
				if id != l.Origin() {
					remote += perNode[i][l]
				}
			}
		}
		s += fmt.Sprintf("%-22s %12.3f %12.3f\n", name, byAct[l]/1000, remote/1000)
	}
	return s
}

func (n *Network) nodeIDs() []core.NodeID {
	return slices.Sorted(maps.Keys(n.Nodes))
}

// byEnergy returns the labels of byAct, highest energy first. Equal
// energies — the same activity run on two nodes, say — go in label order,
// so the order never depends on map iteration.
func byEnergy(byAct map[core.Label]float64) []core.Label {
	return slices.SortedFunc(maps.Keys(byAct), func(a, b core.Label) int {
		if c := cmp.Compare(byAct[b], byAct[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}
