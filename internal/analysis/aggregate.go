package analysis

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
)

// RunningStat accumulates a stream of samples into mean/variance/extrema
// using Welford's online algorithm: numerically stable, O(1) memory, no
// second pass — the same philosophy as the streaming trace pipeline.
type RunningStat struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one sample in.
func (s *RunningStat) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the sample count.
func (s *RunningStat) N() int { return s.n }

// Mean returns the sample mean (0 with no samples).
func (s *RunningStat) Mean() float64 { return s.mean }

// Std returns the sample standard deviation (n-1 denominator; 0 for fewer
// than two samples).
func (s *RunningStat) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// tTable95 holds the two-sided 95% Student-t critical values for 1..30
// degrees of freedom. Sweeps typically replicate a configuration over 3-8
// seeds, squarely in the range where the normal approximation (z=1.96) is
// far too optimistic: t(2)=4.30, more than twice z.
var tTable95 = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCrit95 returns the two-sided 95% Student-t critical value for df degrees
// of freedom: exact table values through df=30, then a first-order
// Cornish-Fisher expansion z + (z^3+z)/(4 df) that decays onto the z=1.96
// asymptote (error ~0.003 at df=31, shrinking monotonically from there).
func tCrit95(df int) float64 {
	if df <= 0 {
		return 0
	}
	if df <= len(tTable95) {
		return tTable95[df-1]
	}
	const z = 1.96
	return z + (z*z*z+z)/(4*float64(df))
}

// CI95 returns the half-width of the 95% confidence interval on the mean,
// using the Student-t critical value for n-1 degrees of freedom (the sample
// variance is itself an estimate, which matters at the 3-8 seed replication
// counts sweeps actually run).
func (s *RunningStat) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return tCrit95(s.n-1) * s.Std() / math.Sqrt(float64(s.n))
}

// Min and Max return the extrema (0 with no samples).
func (s *RunningStat) Min() float64 { return s.min }
func (s *RunningStat) Max() float64 { return s.max }

// statJSON is the serialized form of one statistic.
type statJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// GroupStats holds the per-metric statistics of one configuration group.
type GroupStats struct {
	// Key identifies the group (for scenario sweeps, the spec's canonical
	// configuration JSON).
	Key string
	// N counts the runs folded into the group.
	N     int
	stats map[string]*RunningStat
}

// Stat returns the named metric's statistic, or nil.
func (g *GroupStats) Stat(name string) *RunningStat { return g.stats[name] }

// Metrics lists the group's metric names, sorted.
func (g *GroupStats) Metrics() []string {
	return slices.Sorted(maps.Keys(g.stats))
}

// Aggregate folds scalar outputs of many runs into per-group statistics —
// the cross-seed view of a sweep: per-activity mean/stddev energy breakdowns
// in the style of the paper's Tables 2 and 3, now with confidence intervals.
// Groups keep insertion order, so aggregate output over a deterministic run
// sequence is itself deterministic.
type Aggregate struct {
	order  []string
	groups map[string]*GroupStats
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{groups: make(map[string]*GroupStats)}
}

// Add folds one run's scalar values into the named group.
func (ag *Aggregate) Add(group string, values map[string]float64) {
	g := ag.groups[group]
	if g == nil {
		g = &GroupStats{Key: group, stats: make(map[string]*RunningStat)}
		ag.groups[group] = g
		ag.order = append(ag.order, group)
	}
	g.N++
	//quanto:ordered each value folds into its own metric's statistic; nothing crosses names
	for name, x := range values {
		st := g.stats[name]
		if st == nil {
			st = &RunningStat{}
			g.stats[name] = st
		}
		st.Add(x)
	}
}

// Groups returns the groups in insertion order.
func (ag *Aggregate) Groups() []*GroupStats {
	out := make([]*GroupStats, 0, len(ag.order))
	for _, k := range ag.order {
		out = append(out, ag.groups[k])
	}
	return out
}

// Group returns the named group, or nil.
func (ag *Aggregate) Group(key string) *GroupStats { return ag.groups[key] }

// MarshalJSON renders the aggregate deterministically: groups in insertion
// order, metrics sorted by name.
func (ag *Aggregate) MarshalJSON() ([]byte, error) {
	type groupJSON struct {
		Key   string              `json:"key"`
		N     int                 `json:"n"`
		Stats map[string]statJSON `json:"stats"`
	}
	out := struct {
		Groups []groupJSON `json:"groups"`
	}{Groups: make([]groupJSON, 0, len(ag.order))}
	for _, g := range ag.Groups() {
		gj := groupJSON{Key: g.Key, N: g.N, Stats: make(map[string]statJSON, len(g.stats))}
		//quanto:ordered copies into a map, which encoding/json writes in sorted key order
		for name, st := range g.stats {
			gj.Stats[name] = statJSON{
				N: st.N(), Mean: st.Mean(), Std: st.Std(),
				CI95: st.CI95(), Min: st.Min(), Max: st.Max(),
			}
		}
		out.Groups = append(out.Groups, gj)
	}
	return json.Marshal(out)
}

// Render returns a human-readable table: one block per group, one row per
// metric with mean ± std [min, max].
func (ag *Aggregate) Render() string {
	var sb strings.Builder
	for _, g := range ag.Groups() {
		fmt.Fprintf(&sb, "%s  (n=%d)\n", g.Key, g.N)
		for _, name := range g.Metrics() {
			st := g.stats[name]
			fmt.Fprintf(&sb, "  %-28s %12.4g ± %-10.4g [%.4g, %.4g]\n",
				name, st.Mean(), st.Std(), st.Min(), st.Max())
		}
	}
	return sb.String()
}
