package scenario

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/core"
)

// NodeResult is one node's share of a run.
type NodeResult struct {
	Node       int     `json:"node"`
	Entries    int     `json:"entries"`
	SpanUS     int64   `json:"span_us"`
	EnergyUJ   float64 `json:"energy_uj"`
	AvgPowerMW float64 `json:"avg_power_mw"`

	// The energy-budget outcome, present only when the node ran from a
	// finite battery (spec battery_uah / battery_node_uah).
	//
	// LifetimeUS is the time to depletion, or the observed end of the run
	// when the node survived — the full duration normally, the halt
	// instant under death_policy halt-world (a censored lifetime either
	// way; Died tells which). MarginFrac is the battery charge left at the
	// end of the run as a fraction of capacity (0 for a dead node).
	BatteryUAH float64 `json:"battery_uah,omitempty"`
	Died       bool    `json:"died,omitempty"`
	DiedAtUS   int64   `json:"died_at_us,omitempty"`
	LifetimeUS int64   `json:"lifetime_us,omitempty"`
	MarginFrac float64 `json:"margin_frac,omitempty"`
}

// LinkResult is one directed link's delivery record under the spatial
// medium: frames put on the air with the receiver in range, frames that
// survived the PRR draw and any collisions, frames lost to collisions, and
// the observed PRR (delivered/attempts).
type LinkResult struct {
	Src        int     `json:"src"`
	Dst        int     `json:"dst"`
	Attempts   uint64  `json:"attempts"`
	Delivered  uint64  `json:"delivered"`
	Collisions uint64  `json:"collisions"`
	PRR        float64 `json:"prr"`
}

// Result is the compact, JSON-stable output of one run: enough to aggregate
// across seeds and compare across configurations without carrying the trace.
// Map keys serialize sorted (encoding/json), so a Result's bytes depend only
// on the run's content — the property the worker-count invariance tests pin.
type Result struct {
	Spec Spec `json:"spec"`
	// Run is the run's index in the expanded matrix.
	Run int `json:"run"`
	// Entries counts log entries across all nodes; SpanUS is the longest
	// node's log span.
	Entries int   `json:"entries"`
	SpanUS  int64 `json:"span_us"`
	// TotalUJ is measured energy summed over nodes; AvgPowerMW is the
	// network-wide average power over the span.
	TotalUJ    float64 `json:"total_uj"`
	AvgPowerMW float64 `json:"avg_power_mw"`
	// ActivityUJ breaks the energy down per activity (dictionary names,
	// "Const." for the unattributable constant term) — the paper's
	// Table 3(d) rows, network-wide.
	ActivityUJ map[string]float64 `json:"activity_uj,omitempty"`
	// Nodes holds the per-node breakdown, ordered by node id.
	Nodes []NodeResult `json:"nodes,omitempty"`
	// Metrics carries the app's own counters (false-positive rate, packets
	// delivered, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Spatial records that the run actually used the spatial medium (the
	// app honored the spec's placement); Collisions counts receptions lost
	// to co-channel collisions and Links holds the per-link delivery table
	// (observed PRR per directed link). All absent under the broadcast
	// model — including for apps that accept a placement but ignore it.
	Spatial    bool         `json:"spatial,omitempty"`
	Collisions uint64       `json:"collisions,omitempty"`
	Links      []LinkResult `json:"links,omitempty"`
	// Deaths counts battery depletions; FirstDeathUS is the earliest one.
	Deaths       int   `json:"deaths,omitempty"`
	FirstDeathUS int64 `json:"first_death_us,omitempty"`
	// Error is set when the run failed; the other fields are then partial.
	Error string `json:"error,omitempty"`
}

// Values flattens the result's numeric content for cross-run aggregation.
// Battery-powered nodes contribute per-node lifetime and margin metrics, so
// a seed-replicated sweep gets CI95 bounds on time-to-death for free.
func (r *Result) Values() map[string]float64 {
	v := map[string]float64{
		"total_uj":     r.TotalUJ,
		"avg_power_mw": r.AvgPowerMW,
		"span_us":      float64(r.SpanUS),
		"entries":      float64(r.Entries),
	}
	//quanto:ordered map-to-map copy under distinct prefixed keys; order cannot escape
	for name, uj := range r.ActivityUJ {
		v["act_uj:"+name] = uj
	}
	//quanto:ordered map-to-map copy under distinct prefixed keys; order cannot escape
	for name, x := range r.Metrics {
		v["metric:"+name] = x
	}
	if r.batteryValues(v, newBatteryNames) {
		// Always present for battery runs so the aggregate's death count
		// averages over every replica, not only the fatal ones.
		v["deaths"] = float64(r.Deaths)
	}
	if r.Spatial {
		// Runs that actually used the spatial medium contribute the
		// contention counters — zeros included — so those aggregates
		// cover every replica; link_prr (the network-wide delivery ratio)
		// is only emitted when there were in-range attempts to measure.
		v["collisions"] = float64(r.Collisions)
		var attempts, delivered uint64
		for _, l := range r.Links {
			attempts += l.Attempts
			delivered += l.Delivered
		}
		v["link_attempts"] = float64(attempts)
		if attempts > 0 {
			v["link_prr"] = float64(delivered) / float64(attempts)
		}
	}
	return v
}

// batteryNames are the names of one node's battery values.
type batteryNames struct{ lifetime, died, margin string }

func newBatteryNames(id int) batteryNames {
	s := strconv.Itoa(id)
	return batteryNames{analysis.LifetimeKey + s, analysis.DiedKey + s, analysis.MarginKey + s}
}

// batteryValues puts each battery-powered node's lifetime, death (1 or 0)
// and margin into v, under the names name gives the node, and reports
// whether the run had such a node.
func (r *Result) batteryValues(v map[string]float64, name func(id int) batteryNames) bool {
	battery := false
	for _, n := range r.Nodes {
		if n.BatteryUAH <= 0 {
			continue
		}
		battery = true
		k := name(n.Node)
		v[k.lifetime] = float64(n.LifetimeUS)
		v[k.margin] = n.MarginFrac
		died := 0.0
		if n.Died {
			died = 1
		}
		v[k.died] = died
	}
	return battery
}

// Finish analyzes a completed run node by node, in ascending node id,
// through one StreamAnalyzer reset between nodes: each node's log feeds it
// in one pass, and the node's breakdown, energy, span and NodeResult are
// folded into the Result before the next node starts. Attribution is per
// node, so nothing network-wide stays alive while a node is analyzed. The
// analyzer's tables are sized once for the whole run: before the first
// node of a multi-node run they are reserved for the run's longest log,
// and the state vectors one node interns serve the nodes after it. Each
// node's Analysis, label sums included, is read before the Reset that
// reclaims it. The sums are bit-identical to Network's, which adds the
// same per-node sums in the same node order. An error names the lowest
// failing node, as NetworkAnalyzer.Finish does. Finish does not keep the
// per-node view; Network does.
func (in *Instance) Finish() (*Result, error) { return in.finish(newAnalyzer()) }

// newAnalyzer returns an analyzer for finish, which resets it for every node
// under the run's dictionary.
func newAnalyzer() *analysis.StreamAnalyzer {
	return analysis.NewStreamAnalyzer(0, 0, 0, nil, analysis.DefaultOptions())
}

// finish is Finish through sa: a fresh analyzer, or a Runner worker's,
// reused from run to run. Either way sa is reset for every node, so the
// Result does not depend on which runs sa analyzed before.
func (in *Instance) finish(sa *analysis.StreamAnalyzer) (*Result, error) {
	w := in.World
	r := &Result{Spec: in.Spec}
	ids := make([]core.NodeID, len(w.Nodes))
	var longest []core.Entry
	for i, n := range w.Nodes {
		ids[i] = n.ID
		if len(n.Log.Entries) > len(longest) {
			longest = n.Log.Entries
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	r.Nodes = make([]NodeResult, 0, len(ids))
	byLabel := make(map[core.Label]float64)
	for i, id := range ids {
		n := w.Node(id)
		sa.Reset(id, n.Meter.PulseEnergy(), n.Volts, w.Dict)
		if i == 0 && len(ids) > 1 {
			// One node's RecordBatch sizes the tables for its own log
			// exactly; a run of many sizes them once, for the longest.
			sa.Reserve(longest)
		}
		sa.RecordBatch(n.Log.Entries)
		a, err := sa.Finish()
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", id, err)
		}
		for _, le := range a.ByActivity {
			byLabel[le.Label] += le.UJ
		}
		r.TotalUJ += a.TotalEnergyUJ()
		r.Entries += len(n.Log.Entries)
		r.SpanUS = max(r.SpanUS, a.Span())
		nr := NodeResult{
			Node:       int(id),
			Entries:    len(n.Log.Entries),
			SpanUS:     a.Span(),
			EnergyUJ:   a.TotalEnergyUJ(),
			AvgPowerMW: a.AveragePowerMW(),
		}
		if n.Battery != nil {
			// Close the battery's integration at the end of the run so a
			// survivor's margin covers the full duration.
			n.Battery.Sync(w.Sim.Now())
			nr.BatteryUAH = n.Battery.CapacityUAH()
			nr.MarginFrac = n.Battery.MarginFrac()
			if at, died := n.DiedAt(); died {
				nr.Died = true
				nr.DiedAtUS = int64(at)
				nr.LifetimeUS = int64(at)
				if r.Deaths == 0 || int64(at) < r.FirstDeathUS {
					r.FirstDeathUS = int64(at)
				}
				r.Deaths++
			} else {
				// Censor at the observed end of the run, not the requested
				// duration: under halt-world the simulation stops at the
				// first death, and crediting survivors with unsimulated
				// time would inflate their lifetimes.
				nr.LifetimeUS = int64(w.Sim.Now())
			}
		}
		r.Nodes = append(r.Nodes, nr)
	}
	// Labels from different origins can share a display name ("int_TIMERA1"
	// on every node of a chain), and float addition is not associative — so
	// the per-name fold runs in sorted label order, never map order, or the
	// low bits of ActivityUJ would differ between replays of the same seed.
	r.ActivityUJ = make(map[string]float64, len(byLabel))
	for _, l := range slices.Sorted(maps.Keys(byLabel)) {
		name := "Const."
		if l != analysis.ConstLabel {
			name = w.Dict.LabelName(l)
		}
		r.ActivityUJ[name] += byLabel[l]
	}
	if r.SpanUS > 0 {
		r.AvgPowerMW = r.TotalUJ / float64(r.SpanUS) * 1000
	}
	if in.Metrics != nil {
		r.Metrics = in.Metrics()
	}
	if med := in.World.Medium; med.SpatialEnabled() {
		r.Spatial = true
		r.Collisions = med.Collisions()
		for _, l := range med.LinkStats() {
			r.Links = append(r.Links, LinkResult{
				Src: int(l.Src), Dst: int(l.Dst),
				Attempts: l.Attempts, Delivered: l.Delivered,
				Collisions: l.Collisions, PRR: l.PRR,
			})
		}
	}
	return r, nil
}

// Network runs the full streaming analysis and returns the per-node and
// network-wide view, for callers that need more than the compact Result
// (timelines, regressions, footprints). It keeps every node's Analysis
// alive, which Finish avoids, so it is built only on request: once per
// instance, cached, and independent of Finish. Call it only after Run.
func (in *Instance) Network() (*analysis.Network, error) {
	if in.net != nil {
		return in.net, nil
	}
	na := analysis.NewNetworkAnalyzer(in.World.Dict, analysis.DefaultOptions(), 0, 0)
	for _, n := range in.World.Nodes {
		na.AddNode(n.ID, n.Meter.PulseEnergy(), n.Volts).RecordBatch(n.Log.Entries)
	}
	net, err := na.Finish()
	if err != nil {
		return nil, err
	}
	in.net = net
	return net, nil
}

// RunSpec builds, runs, and analyzes one spec. Failures (including panics in
// app code) are captured in the Result rather than aborting a sweep. It runs
// the spec on a fresh Runner worker, so a Runner's Result for the spec is
// the same bytes.
func RunSpec(spec Spec) *Result { return newWorker().run(spec) }
