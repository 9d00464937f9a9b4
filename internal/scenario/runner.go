package scenario

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/mote"
)

// Runner executes an expanded spec list concurrently. Every run is isolated
// — a worker runs one spec at a time, in the one world it keeps and resets
// for every run — and its seed was fixed at expansion time, so the worker
// count and completion order affect wall-clock time only, never a single
// byte of output. A reset world runs as a new one does, and keeps only the
// storage its simulator and dictionary have grown (the timer wheel, the
// event pool's blocks, the name maps), so a sweep allocates those once per
// worker instead of once per run. Each worker also keeps one StreamAnalyzer
// across its runs and resets it for every node under the run's dictionary,
// so a sweep sizes the analyzer's tables once per worker; a reset analyzer
// gives a fresh one's Result.
//
// And each worker keeps one log buffer per node position and hands it to
// the node at that position in every run it takes, so a sweep grows its
// logs once per worker instead of once per run. A log holds the same
// entries in the same order in an older array, so every Result is
// byte-identical to RunSpec's. Until Run returns, a worker keeps at each
// node position the storage of the longest log it has held there, which
// grew by doubling to at most about twice that log's entries.
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
			wk := newWorker()
			for i := range jobs {
				r := wk.run(specs[i])
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

// worker runs specs one after another and keeps what a run sizes: one
// world, which run resets for every spec, one analyzer, which finish resets
// for every node, and one log buffer per node position in World.Nodes.
type worker struct {
	world *mote.World
	sa    *analysis.StreamAnalyzer
	logs  [][]core.Entry
}

func newWorker() *worker { return &worker{world: new(mote.World), sa: newAnalyzer()} }

// run builds, runs and analyzes one spec, capturing a failure or a panic in
// the Result. It resets the worker's world before building into it, so a
// run that failed to build or panicked mid-dispatch leaves nothing behind.
// Between build and Run, each node at a position the worker has a buffer
// for moves the entries it logged during assembly into that buffer; after
// finish the worker takes every node's log storage back. No Result aliases
// a log or the world. A run that panics gives nothing back: the arrays its
// nodes adopted are reachable only through the worker's buffers, which stay
// safe to reuse.
func (wk *worker) run(spec Spec) (res *Result) {
	defer func() {
		if p := recover(); p != nil {
			res = &Result{Spec: spec, Error: fmt.Sprintf("panic: %v", p)}
		}
	}()
	wk.world.Reset(spec.Seed)
	in, err := build(spec, wk.world)
	if err != nil {
		return &Result{Spec: spec, Error: err.Error()}
	}
	for i, n := range in.World.Nodes {
		if i < len(wk.logs) {
			n.Log.Entries = append(wk.logs[i][:0], n.Log.Entries...)
		}
	}
	in.Run()
	r, err := in.finish(wk.sa)
	for i, n := range in.World.Nodes {
		if i < len(wk.logs) {
			wk.logs[i] = n.Log.Entries
		} else {
			wk.logs = append(wk.logs, n.Log.Entries)
		}
	}
	if err != nil {
		return &Result{Spec: spec, Error: err.Error()}
	}
	return r
}

// fold groups a result list's runs by ConfigKey, replicas across seeds
// forming one group, and folds each run's values into its group's
// statistics. A failed run, or one whose values are empty, contributes
// nothing and makes no group.
func fold(results []*Result, values func(*Result) map[string]float64) *analysis.Aggregate {
	ag := analysis.NewAggregate()
	for _, r := range results {
		if r == nil || r.Error != "" {
			continue
		}
		if v := values(r); len(v) > 0 {
			ag.Add(r.Spec.ConfigKey(), v)
		}
	}
	return ag
}

// Lifetimes folds the battery outcomes of a result list into a lifetime
// report: runs sharing a ConfigKey are one group, every battery-powered node
// gets a death rate, mean time-to-death with CI95, and mean energy margin
// across the group's seeds. Runs without batteries (and failed runs)
// contribute nothing, so the report is empty for non-lifetime sweeps.
func Lifetimes(results []*Result) *analysis.LifetimeReport {
	// One map carries every run's values into Add, which copies them, and
	// each node's names are built once, so a run's values allocate nothing
	// once its nodes have been named.
	v := make(map[string]float64)
	names := make(map[int]batteryNames)
	name := func(id int) batteryNames {
		n, ok := names[id]
		if !ok {
			n = newBatteryNames(id)
			names[id] = n
		}
		return n
	}
	return (*analysis.LifetimeReport)(fold(results, func(r *Result) map[string]float64 {
		clear(v)
		r.batteryValues(v, name)
		return v
	}))
}

// Routes folds the routed runs of a result list into a RouteReport: one
// group per ConfigKey with delivery ratio, tree depth, reroute counts, and —
// for runs with battery deaths — the post-death delivery extension. Runs
// without a routing plane (no net_* metrics) contribute nothing, so the
// report stays empty for classic sweeps and the CLI can skip rendering it.
func Routes(results []*Result) *analysis.RouteReport {
	v := make(map[string]float64)
	return (*analysis.RouteReport)(fold(results, func(r *Result) map[string]float64 {
		m := r.Metrics
		if _, routed := m["net_routed"]; !routed {
			return nil
		}
		clear(v)
		if m["generated"] > 0 {
			v[analysis.RouteDelivery] = m["delivered"] / m["generated"]
		}
		v[analysis.RoutePathETX] = m["net_path_etx_mean"]
		v[analysis.RouteReroutes] = m["net_parent_changes"]
		v[analysis.RouteLoopDrops] = m["net_loop_avoided"] + m["net_ttl_drops"]
		v[analysis.RouteNoRoute] = m["net_no_route"]
		v[analysis.RouteBeaconsTx] = m["net_beacons_tx"]
		v[analysis.RouteLastUS] = m["net_last_delivery_us"]
		if r.Deaths > 0 {
			v[analysis.RouteExtensionUS] = m["net_last_delivery_us"] - float64(r.FirstDeathUS)
		}
		return v
	}))
}

// Aggregate folds a result list into per-configuration statistics: runs
// sharing a ConfigKey (replicas across seeds) are one group, and every
// numeric output — total energy, average power, per-activity energy, app
// metrics — gets a mean/stddev/CI across the group. Failed runs are skipped;
// the caller sees them in the result list.
func Aggregate(results []*Result) *analysis.Aggregate {
	return fold(results, (*Result).Values)
}
