package analysis

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// The per-node metrics a LifetimeReport renders, each name followed by the
// node id: the time to depletion in microseconds (censored at the run's end
// for a survivor), 1 for a death and 0 for a survivor, and the fraction of
// capacity left at the end.
const (
	LifetimeKey = "lifetime_us:node"
	DiedKey     = "died:node"
	MarginKey   = "margin_frac:node"
)

// LifetimeReport is an Aggregate of battery outcomes rendered per node: one
// group per swept configuration, and for each battery-powered node its
// death rate, mean time-to-death with a CI95 half-width, and mean energy
// margin. Only runs with a battery node belong in it, so Empty tells a
// lifetime study from a sweep without batteries.
//
// Survivor lifetimes are censored at the run duration; DeathRate tells how
// much of the mean is censoring. The statistics are the Aggregate's own, so
// the CI95 here is exactly the one the sweep aggregate reports for the
// matching LifetimeKey metric.
type LifetimeReport Aggregate

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

// lifetimeNodes returns g's battery nodes, by id.
func lifetimeNodes(g *GroupStats) []lifetimeNodeJSON {
	var out []lifetimeNodeJSON
	//quanto:ordered each node's row reads only its own statistics, and the rows are sorted by id below
	for name, life := range g.stats {
		id, ok := strings.CutPrefix(name, LifetimeKey)
		if !ok {
			continue
		}
		node, _ := strconv.Atoi(id)
		// Each run adds 0 or 1, so the mean times the count is the death
		// count to well within rounding.
		deaths := int(math.Round(g.stats[DiedKey+id].Mean() * float64(life.N())))
		out = append(out, lifetimeNodeJSON{
			Node:           node,
			Runs:           life.N(),
			Deaths:         deaths,
			DeathRate:      float64(deaths) / float64(life.N()),
			MeanLifetimeUS: life.Mean(),
			CI95LifetimeUS: life.CI95(),
			MinLifetimeUS:  life.Min(),
			MaxLifetimeUS:  life.Max(),
			MeanMarginFrac: g.stats[MarginKey+id].Mean(),
		})
	}
	slices.SortFunc(out, func(a, b lifetimeNodeJSON) int { return cmp.Compare(a.Node, b.Node) })
	return out
}

// MarshalJSON renders the report deterministically: groups in insertion
// order, nodes sorted by id.
func (lr *LifetimeReport) MarshalJSON() ([]byte, error) {
	type groupJSON struct {
		Key   string             `json:"key"`
		Runs  int                `json:"runs"`
		Nodes []lifetimeNodeJSON `json:"nodes"`
	}
	groups := (*Aggregate)(lr).Groups()
	out := struct {
		Groups []groupJSON `json:"groups"`
	}{Groups: make([]groupJSON, 0, len(groups))}
	for _, g := range groups {
		out.Groups = append(out.Groups, groupJSON{Key: g.Key, Runs: g.N, Nodes: lifetimeNodes(g)})
	}
	return json.Marshal(out)
}

// Render returns the human-readable lifetime table: one block per
// configuration, one row per node with deaths, mean lifetime ± CI95 in
// seconds, and mean margin.
func (lr *LifetimeReport) Render() string {
	var sb strings.Builder
	for _, g := range (*Aggregate)(lr).Groups() {
		fmt.Fprintf(&sb, "%s  (n=%d)\n", g.Key, g.N)
		fmt.Fprintf(&sb, "  %-6s %8s %14s %12s %10s\n",
			"node", "deaths", "lifetime [s]", "ci95 [s]", "margin")
		for _, nj := range lifetimeNodes(g) {
			fmt.Fprintf(&sb, "  %-6d %3d/%-4d %14.3f %12.3f %9.1f%%\n",
				nj.Node, nj.Deaths, nj.Runs,
				nj.MeanLifetimeUS/1e6, nj.CI95LifetimeUS/1e6,
				nj.MeanMarginFrac*100)
		}
	}
	return sb.String()
}
