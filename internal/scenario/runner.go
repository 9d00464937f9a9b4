package scenario

import (
	"runtime"
	"sync"

	"repro/internal/analysis"
)

// Runner executes an expanded spec list concurrently. Every run is isolated
// — its own simulator, world and dictionary — and its seed was fixed at
// expansion time, so the worker count and completion order affect
// wall-clock time only, never a single byte of output. Each worker keeps one
// StreamAnalyzer across its runs and resets it for every node under the
// run's dictionary, so a sweep sizes the analyzer's tables once per worker
// instead of once per run; a reset analyzer gives a fresh one's Result.
type Runner struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// OnResult, when set, is invoked once per run *in matrix order* (an
	// in-order gate holds back runs that finish ahead of their
	// predecessors). This is what lets `quanto-trace sweep` stream
	// JSON-lines output that is byte-identical for any -workers value.
	OnResult func(*Result)
}

// Run executes every spec and returns the results indexed like the input.
// Individual run failures are reported inside the Result (Error field); Run
// itself only fails on harness-level misuse.
func (rn *Runner) Run(specs []Spec) []*Result {
	results := make([]*Result, len(specs))
	if len(specs) == 0 {
		return results
	}
	workers := rn.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	jobs := make(chan int)
	done := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sa := newAnalyzer()
			for i := range jobs {
				r := runSpec(specs[i], sa)
				r.Run = i
				results[i] = r
				done <- i
			}
		}()
	}
	go func() {
		for i := range specs {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(done)
	}()

	// In-order emission gate: deliver results to OnResult in matrix order
	// no matter which worker finishes first.
	next := 0
	ready := make(map[int]bool)
	for i := range done {
		ready[i] = true
		for ready[next] {
			delete(ready, next)
			if rn.OnResult != nil {
				rn.OnResult(results[next])
			}
			next++
		}
	}
	return results
}

// Lifetimes folds the battery outcomes of a result list into a lifetime
// report: runs sharing a ConfigKey are one group, every battery-powered node
// gets a death rate, mean time-to-death with CI95, and mean energy margin
// across the group's seeds. Runs without batteries (and failed runs)
// contribute nothing, so the report is empty for non-lifetime sweeps.
func Lifetimes(results []*Result) *analysis.LifetimeReport {
	lr := analysis.NewLifetimeReport()
	for _, r := range results {
		if r == nil || r.Error != "" {
			continue
		}
		var nodes []analysis.NodeLifetime
		for _, n := range r.Nodes {
			if n.BatteryUAH <= 0 {
				continue
			}
			nodes = append(nodes, analysis.NodeLifetime{
				Node:       n.Node,
				Died:       n.Died,
				LifetimeUS: n.LifetimeUS,
				MarginFrac: n.MarginFrac,
			})
		}
		lr.Add(r.Spec.ConfigKey(), nodes)
	}
	return lr
}

// Routes folds the routed runs of a result list into a RouteReport: one
// group per ConfigKey with delivery ratio, tree depth, reroute counts, and —
// for runs with battery deaths — the post-death delivery extension. Runs
// without a routing plane (no net_* metrics) contribute nothing, so the
// report stays empty for classic sweeps and the CLI can skip rendering it.
func Routes(results []*Result) *analysis.RouteReport {
	rr := analysis.NewRouteReport()
	for _, r := range results {
		if r == nil || r.Error != "" {
			continue
		}
		m := r.Metrics
		if _, routed := m["net_routed"]; !routed {
			continue
		}
		s := analysis.RouteSample{
			Generated:      m["generated"],
			Delivered:      m["delivered"],
			ParentChanges:  m["net_parent_changes"],
			LoopAvoided:    m["net_loop_avoided"],
			NoRoute:        m["net_no_route"],
			TTLDrops:       m["net_ttl_drops"],
			BeaconsTx:      m["net_beacons_tx"],
			BeaconsRx:      m["net_beacons_rx"],
			MeanPathETX:    m["net_path_etx_mean"],
			LastDeliveryUS: m["net_last_delivery_us"],
			FirstDeathUS:   -1,
		}
		if r.Deaths > 0 {
			s.FirstDeathUS = float64(r.FirstDeathUS)
		}
		rr.Add(r.Spec.ConfigKey(), s)
	}
	return rr
}

// Aggregate folds a result list into per-configuration statistics: runs
// sharing a ConfigKey (replicas across seeds) are one group, and every
// numeric output — total energy, average power, per-activity energy, app
// metrics — gets a mean/stddev/CI across the group. Failed runs are skipped;
// the caller sees them in the result list.
func Aggregate(results []*Result) *analysis.Aggregate {
	ag := analysis.NewAggregate()
	for _, r := range results {
		if r == nil || r.Error != "" {
			continue
		}
		ag.Add(r.Spec.ConfigKey(), r.Values())
	}
	return ag
}
