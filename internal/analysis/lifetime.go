package analysis

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// NodeLifetime is one battery-powered node's energy-budget outcome in one
// run: whether it died, how long it lived (censored at the run duration for
// survivors), and the charge margin left at the end.
type NodeLifetime struct {
	Node       int
	Died       bool
	LifetimeUS int64
	MarginFrac float64
}

// lifetimeNodeStats folds one node's samples across the replicas of a group.
type lifetimeNodeStats struct {
	deaths   int
	lifetime RunningStat // microseconds, censored for survivors
	margin   RunningStat // fraction of capacity left
}

// lifetimeGroup holds one configuration's per-node statistics.
type lifetimeGroup struct {
	key   string
	runs  int
	nodes map[int]*lifetimeNodeStats
}

// LifetimeReport folds NodeLifetime samples across runs into per-group,
// per-node statistics: death rate, mean time-to-death with a CI95
// half-width, and mean energy margin. Groups (one per swept configuration)
// keep insertion order, so a report built from a deterministic run sequence
// renders deterministically — the same contract as Aggregate.
//
// Survivor lifetimes are censored at the run duration; DeathRate tells how
// much of the mean is censoring. The per-metric statistics reuse
// RunningStat, so the CI95 here is exactly the one the sweep aggregate
// reports for the matching "lifetime_us:nodeN" metric.
type LifetimeReport struct {
	order  []string
	groups map[string]*lifetimeGroup
}

// NewLifetimeReport returns an empty report.
func NewLifetimeReport() *LifetimeReport {
	return &LifetimeReport{groups: make(map[string]*lifetimeGroup)}
}

// Add folds one run's node outcomes into the named group (for sweeps, the
// spec's ConfigKey). Runs without battery nodes contribute nothing.
func (lr *LifetimeReport) Add(group string, nodes []NodeLifetime) {
	if len(nodes) == 0 {
		return
	}
	g := lr.groups[group]
	if g == nil {
		g = &lifetimeGroup{key: group, nodes: make(map[int]*lifetimeNodeStats)}
		lr.groups[group] = g
		lr.order = append(lr.order, group)
	}
	g.runs++
	for _, n := range nodes {
		st := g.nodes[n.Node]
		if st == nil {
			st = &lifetimeNodeStats{}
			g.nodes[n.Node] = st
		}
		if n.Died {
			st.deaths++
		}
		st.lifetime.Add(float64(n.LifetimeUS))
		st.margin.Add(n.MarginFrac)
	}
}

// Empty reports whether no battery outcomes were folded in.
func (lr *LifetimeReport) Empty() bool { return len(lr.order) == 0 }

// lifetimeNodeJSON is the serialized per-node view.
type lifetimeNodeJSON struct {
	Node           int     `json:"node"`
	Runs           int     `json:"runs"`
	Deaths         int     `json:"deaths"`
	DeathRate      float64 `json:"death_rate"`
	MeanLifetimeUS float64 `json:"mean_lifetime_us"`
	CI95LifetimeUS float64 `json:"ci95_lifetime_us"`
	MinLifetimeUS  float64 `json:"min_lifetime_us"`
	MaxLifetimeUS  float64 `json:"max_lifetime_us"`
	MeanMarginFrac float64 `json:"mean_margin_frac"`
}

func (g *lifetimeGroup) nodeIDs() []int {
	return slices.Sorted(maps.Keys(g.nodes))
}

func (g *lifetimeGroup) nodeJSON(id int) lifetimeNodeJSON {
	st := g.nodes[id]
	return lifetimeNodeJSON{
		Node:           id,
		Runs:           st.lifetime.N(),
		Deaths:         st.deaths,
		DeathRate:      float64(st.deaths) / float64(st.lifetime.N()),
		MeanLifetimeUS: st.lifetime.Mean(),
		CI95LifetimeUS: st.lifetime.CI95(),
		MinLifetimeUS:  st.lifetime.Min(),
		MaxLifetimeUS:  st.lifetime.Max(),
		MeanMarginFrac: st.margin.Mean(),
	}
}

// MarshalJSON renders the report deterministically: groups in insertion
// order, nodes sorted by id.
func (lr *LifetimeReport) MarshalJSON() ([]byte, error) {
	type groupJSON struct {
		Key   string             `json:"key"`
		Runs  int                `json:"runs"`
		Nodes []lifetimeNodeJSON `json:"nodes"`
	}
	out := struct {
		Groups []groupJSON `json:"groups"`
	}{Groups: make([]groupJSON, 0, len(lr.order))}
	for _, key := range lr.order {
		g := lr.groups[key]
		gj := groupJSON{Key: key, Runs: g.runs}
		for _, id := range g.nodeIDs() {
			gj.Nodes = append(gj.Nodes, g.nodeJSON(id))
		}
		out.Groups = append(out.Groups, gj)
	}
	return json.Marshal(out)
}

// Render returns the human-readable lifetime table: one block per
// configuration, one row per node with deaths, mean lifetime ± CI95 in
// seconds, and mean margin.
func (lr *LifetimeReport) Render() string {
	var sb strings.Builder
	for _, key := range lr.order {
		g := lr.groups[key]
		fmt.Fprintf(&sb, "%s  (n=%d)\n", key, g.runs)
		fmt.Fprintf(&sb, "  %-6s %8s %14s %12s %10s\n",
			"node", "deaths", "lifetime [s]", "ci95 [s]", "margin")
		for _, id := range g.nodeIDs() {
			nj := g.nodeJSON(id)
			fmt.Fprintf(&sb, "  %-6d %3d/%-4d %14.3f %12.3f %9.1f%%\n",
				nj.Node, nj.Deaths, nj.Runs,
				nj.MeanLifetimeUS/1e6, nj.CI95LifetimeUS/1e6,
				nj.MeanMarginFrac*100)
		}
	}
	return sb.String()
}
