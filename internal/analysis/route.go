package analysis

import (
	"encoding/json"
	"fmt"
	"strings"
)

// The per-run metrics a RouteReport renders: delivered/generated (only for
// runs that generated a packet), mean path ETX, parent changes,
// loop-avoided plus TTL drops (the transient-loop tax), no-route drops,
// beacons sent, the last delivery's time, and how long after the first
// battery death the last delivery came (only for runs with a death).
const (
	RouteDelivery    = "delivery_ratio"
	RoutePathETX     = "path_etx"
	RouteReroutes    = "parent_changes"
	RouteLoopDrops   = "loop_drops"
	RouteNoRoute     = "no_route"
	RouteBeaconsTx   = "beacons_tx"
	RouteLastUS      = "last_delivery_us"
	RouteExtensionUS = "extension_us"
)

// RouteReport is an Aggregate of routed runs rendered per configuration:
// delivery ratio, tree depth (mean path ETX), reroute and loop counts,
// control-plane overhead, and — for runs with battery deaths — how far past
// the first death the network kept delivering. Groups keep insertion order,
// as in every Aggregate.
type RouteReport Aggregate

// Empty reports whether no routed runs were folded in.
func (rr *RouteReport) Empty() bool { return len(rr.order) == 0 }

// routeGroupJSON is the serialized per-group view.
type routeGroupJSON struct {
	Key               string  `json:"key"`
	Runs              int     `json:"runs"`
	MeanDeliveryRatio float64 `json:"mean_delivery_ratio"`
	CI95DeliveryRatio float64 `json:"ci95_delivery_ratio"`
	MeanPathETX       float64 `json:"mean_path_etx"`
	MeanParentChanges float64 `json:"mean_parent_changes"`
	MeanLoopDrops     float64 `json:"mean_loop_drops"`
	MeanNoRoute       float64 `json:"mean_no_route"`
	MeanBeaconsTx     float64 `json:"mean_beacons_tx"`
	MeanLastDeliveryS float64 `json:"mean_last_delivery_s"`
	// Deaths counts the folded runs that saw a battery death; the extension
	// stats cover only those.
	Deaths         int     `json:"deaths,omitempty"`
	MeanExtensionS float64 `json:"mean_extension_s,omitempty"`
	MinExtensionS  float64 `json:"min_extension_s,omitempty"`
	CI95ExtensionS float64 `json:"ci95_extension_s,omitempty"`
}

// routeRow returns g's row of the report. A metric no run of the group had
// reads as an empty statistic.
func routeRow(g *GroupStats) routeGroupJSON {
	stat := func(name string) *RunningStat {
		if st := g.stats[name]; st != nil {
			return st
		}
		return &RunningStat{}
	}
	delivery := stat(RouteDelivery)
	gj := routeGroupJSON{
		Key:               g.Key,
		Runs:              g.N,
		MeanDeliveryRatio: delivery.Mean(),
		CI95DeliveryRatio: delivery.CI95(),
		MeanPathETX:       stat(RoutePathETX).Mean(),
		MeanParentChanges: stat(RouteReroutes).Mean(),
		MeanLoopDrops:     stat(RouteLoopDrops).Mean(),
		MeanNoRoute:       stat(RouteNoRoute).Mean(),
		MeanBeaconsTx:     stat(RouteBeaconsTx).Mean(),
		MeanLastDeliveryS: stat(RouteLastUS).Mean() / 1e6,
	}
	if ext := stat(RouteExtensionUS); ext.N() > 0 {
		gj.Deaths = ext.N()
		gj.MeanExtensionS = ext.Mean() / 1e6
		gj.MinExtensionS = ext.Min() / 1e6
		gj.CI95ExtensionS = ext.CI95() / 1e6
	}
	return gj
}

// MarshalJSON renders the report deterministically: groups in insertion
// order.
func (rr *RouteReport) MarshalJSON() ([]byte, error) {
	groups := (*Aggregate)(rr).Groups()
	out := struct {
		Groups []routeGroupJSON `json:"groups"`
	}{Groups: make([]routeGroupJSON, 0, len(groups))}
	for _, g := range groups {
		out.Groups = append(out.Groups, routeRow(g))
	}
	return json.Marshal(out)
}

// Render returns the human-readable routing table: one row per
// configuration with delivery ratio, tree depth, reroute/loop/overhead
// counts, and — when a run saw deaths — the mean post-death delivery
// extension in seconds.
func (rr *RouteReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-40s %5s %9s %8s %9s %7s %9s %12s\n",
		"config", "runs", "delivery", "pathETX", "reroutes", "loops", "beacons", "extension")
	for _, g := range (*Aggregate)(rr).Groups() {
		gj := routeRow(g)
		ext := "-"
		if gj.Deaths > 0 {
			ext = fmt.Sprintf("%+.1fs (n=%d)", gj.MeanExtensionS, gj.Deaths)
		}
		fmt.Fprintf(&sb, "%-40s %5d %8.1f%% %8.2f %9.1f %7.1f %9.0f %12s\n",
			gj.Key, gj.Runs, gj.MeanDeliveryRatio*100, gj.MeanPathETX,
			gj.MeanParentChanges, gj.MeanLoopDrops, gj.MeanBeaconsTx, ext)
	}
	return sb.String()
}
