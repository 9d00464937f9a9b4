package apps

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestSpatialInfiniteRangeMatchesBroadcast is the broadcast-equivalence
// contract: a spatial medium whose every link is in range and lossless (a
// tightly packed line with a huge delivery cutoff) must reproduce the
// legacy broadcast medium's per-node logs byte for byte, across apps and
// seeds. This is what licenses the spatial layer to share Transmit with
// the flat model — no placement configured means no behavioral change.
func TestSpatialInfiniteRangeMatchesBroadcast(t *testing.T) {
	runLogs := func(t *testing.T, s scenario.Spec) map[core.NodeID][]core.Entry {
		t.Helper()
		in, err := scenario.Build(s)
		if err != nil {
			t.Fatalf("build %v: %v", s.App, err)
		}
		in.Run()
		logs := make(map[core.NodeID][]core.Entry, len(in.World.Nodes))
		for _, n := range in.World.Nodes {
			logs[n.ID] = n.Log.Entries
		}
		return logs
	}
	for _, app := range []string{"relay", "bounce", "sensesend", "dma"} {
		for _, seed := range []uint64{1, 7, 42} {
			base := scenario.Spec{App: app, DurationUS: 3_000_000, Seed: seed}
			if app == "relay" {
				base.Nodes = 4
			}
			spatial := base
			spatial.Placement = scenario.PlacementLine
			spatial.AreaM = 3      // 1 m spacing: every link exactly lossless
			spatial.TxRangeM = 1e4 // every node in every node's range

			a := runLogs(t, base)
			b := runLogs(t, spatial)
			if len(a) != len(b) {
				t.Fatalf("%s seed %d: node sets differ: %d vs %d", app, seed, len(a), len(b))
			}
			for id, ea := range a {
				eb := b[id]
				if len(ea) != len(eb) {
					t.Errorf("%s seed %d node %d: %d vs %d entries", app, seed, id, len(ea), len(eb))
					continue
				}
				for i := range ea {
					if ea[i] != eb[i] {
						t.Errorf("%s seed %d node %d entry %d: %+v vs %+v",
							app, seed, id, i, ea[i], eb[i])
						break
					}
				}
			}
		}
	}
}

// TestSpatialRunDeterministic pins that a random-geometric spatial run is a
// pure function of its spec: identical result JSON on replay (placement and
// channel-loss draws both derive from the run seed), different outcomes
// under a different seed's layout.
func TestSpatialRunDeterministic(t *testing.T) {
	spec := scenario.Spec{
		App: "relay", Nodes: 16, DurationUS: 4_000_000, Seed: 11,
		Placement: scenario.PlacementRGG, PeriodUS: 400_000,
	}
	enc := func(r *scenario.Result) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	r1 := scenario.RunSpec(spec)
	r2 := scenario.RunSpec(spec)
	if r1.Error != "" || r2.Error != "" {
		t.Fatalf("runs failed: %q %q", r1.Error, r2.Error)
	}
	if enc(r1) != enc(r2) {
		t.Fatal("identical spatial specs produced different results")
	}

	other := spec
	other.Seed = 12
	p1, err := spec.Positions(16)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := other.Positions(16)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range p1 {
		if p1[i] != p2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical rgg layout")
	}
}

// TestSpatialSpecValidation pins the spec-level contract for the placement
// fields: knobs require a placement, values are bounded, unknown placements
// fail loudly.
func TestSpatialSpecValidation(t *testing.T) {
	ok := scenario.Spec{App: "relay", DurationUS: 1000, Placement: "rgg",
		AreaM: 100, PathLossExp: 2.5, TxRangeM: 30, CaptureDB: 5}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spatial spec rejected: %v", err)
	}
	for name, bad := range map[string]scenario.Spec{
		"unknown placement":  {App: "relay", DurationUS: 1000, Placement: "ring"},
		"knob w/o placement": {App: "relay", DurationUS: 1000, TxRangeM: 30},
		"negative area":      {App: "relay", DurationUS: 1000, Placement: "line", AreaM: -1},
		"wild exponent":      {App: "relay", DurationUS: 1000, Placement: "grid", PathLossExp: 12},
		"negative capture":   {App: "relay", DurationUS: 1000, Placement: "rgg", CaptureDB: -2},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: spec accepted, want error", name)
		}
	}
}

// TestSpatialSweepWorkerInvariance extends the worker-count determinism
// contract to spatial matrices: a density sweep produces byte-identical
// result streams for any pool width.
func TestSpatialSweepWorkerInvariance(t *testing.T) {
	m := scenario.Matrix{
		Base: scenario.Spec{
			App: "relay", DurationUS: 2_000_000, Seed: 5,
			Placement: scenario.PlacementRGG, PeriodUS: 300_000,
		},
		Sweep: map[string][]any{"nodes": {8, 16}, "area_m": {60.0, 120.0}},
		Seeds: 2,
	}
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) string {
		var out []byte
		rn := &scenario.Runner{Workers: workers, OnResult: func(r *scenario.Result) {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
			out = append(out, '\n')
		}}
		rn.Run(specs)
		return string(out)
	}
	if run(1) != run(8) {
		t.Fatal("spatial sweep output depends on worker count")
	}
}

// TestRelayWorldObjectBudget bounds the live heap objects and bytes a built
// relay world holds per node. Every garbage-collection cycle marks the whole
// world, so on a 10 000-node network each object a node keeps costs every
// cycle of the run. The count is independent of the network's size (the
// same per node at 500, 2 000 and 10 000 nodes), so 500 nodes suffice. The
// byte budget holds Build to what the run reads: a neighbor index built for
// every node before any has sent would exceed it. It reads process-wide
// heap counters: no test in this package may run in parallel with it.
func TestRelayWorldObjectBudget(t *testing.T) {
	const budget, bytesBudget = 48.5, 4324
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	in, err := scenario.Build(budgetRelay)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(in)
	perNode := float64(after.HeapObjects-before.HeapObjects) / float64(budgetRelay.Nodes)
	bytesPerNode := float64(after.HeapAlloc-before.HeapAlloc) / float64(budgetRelay.Nodes)
	t.Logf("%.2f live heap objects and %.0f B per node after Build", perNode, bytesPerNode)
	if perNode > budget {
		t.Errorf("a built relay world holds %.2f live heap objects per node, want at most %v", perNode, budget)
	}
	if bytesPerNode > bytesBudget {
		t.Errorf("a built relay world holds %.0f live heap bytes per node, want at most %d", bytesPerNode, bytesBudget)
	}
}

// TestRelayBuildAllocBudget bounds the bytes and heap objects one Build of
// the relay network allocates per node, garbage included. A node whose
// tables are sized at once allocates each of them once; a table that
// regrows while the node is assembled, or a log buffer that fills before
// the run starts, leaves the live heap of the test above nearly unchanged
// but shows here: one more growth per node, of the smallest table, breaks
// either budget. Like the tests around it, it reads process-wide heap
// counters: no test in this package may run in parallel with it.
func TestRelayBuildAllocBudget(t *testing.T) {
	budget, bytesBudget := 48.5, 4400.0
	if raceDetector {
		// One more growth temporary per node: its log's first buffer.
		budget, bytesBudget = 49.5, 4800
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	in, err := scenario.Build(budgetRelay)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(in)
	perNode := float64(after.Mallocs-before.Mallocs) / float64(budgetRelay.Nodes)
	bytesPerNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(budgetRelay.Nodes)
	t.Logf("Build allocates %.2f heap objects and %.0f B per node", perNode, bytesPerNode)
	if perNode > budget {
		t.Errorf("Build allocates %.2f heap objects per node, want at most %v", perNode, budget)
	}
	if bytesPerNode > bytesBudget {
		t.Errorf("Build allocates %.0f B per node, want at most %v", bytesPerNode, bytesBudget)
	}
}

// budgetRelay is the relay network the object budgets measure.
var budgetRelay = scenario.Spec{
	App: "relay", Seed: 1, Nodes: 500, Placement: scenario.PlacementRGG,
	Origins: 8, PeriodUS: 40_000, DurationUS: 1_000_000, BatteryUAH: 50000,
}

// TestRelayFinishObjectBudget bounds the heap objects one Finish of a run
// relay world allocates per node. Finish analyzes node after node through
// one reused analyzer, whose tables and regression scratch are sized once
// for the run, and reads each node's breakdown straight from them; a state
// vector one node interns serves every later node that enters it. Most of
// what is left per node is the solver's matrices on the nodes that fit a
// regression. Most nodes of this network log too little to regress and
// fall back to the constant-only model, which must not allocate an error.
// Like the test above it reads process-wide heap counters: no test in this
// package may run in parallel with it.
func TestRelayFinishObjectBudget(t *testing.T) {
	const budget = 15
	in, err := scenario.Build(budgetRelay)
	if err != nil {
		t.Fatal(err)
	}
	in.Run()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = in.Finish()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perNode := float64(after.Mallocs-before.Mallocs) / float64(budgetRelay.Nodes)
	t.Logf("%.2f heap objects allocated per node by Finish", perNode)
	if perNode > budget {
		t.Errorf("Finish allocates %.2f heap objects per node, want at most %d", perNode, budget)
	}
}

// TestRoutedFinishSizesOnce bounds the bytes one Finish of a routed mobile
// grid allocates per logged entry. Its 64 nodes log from about 1,900 to
// 6,200 entries each, so an analyzer sized for the first node's log and
// grown for each longer one after it allocates its tables several times
// over (about 5 B per entry); Finish sizes them once, for the run's longest
// log (about 3 B). Like the tests above it reads process-wide heap
// counters: no test in this package may run in parallel with it.
func TestRoutedFinishSizesOnce(t *testing.T) {
	bytesBudget := 3.5
	if raceDetector {
		bytesBudget = 5 // a growth temporary per table sized
	}
	in, err := scenario.Build(scenario.Spec{
		App: "relay", Seed: 1, Nodes: 64, Placement: scenario.PlacementGrid,
		Routing: scenario.RoutingCTP, Mobility: scenario.MobilityWaypoint, SpeedMPS: 4,
		Origins: 8, DurationUS: 8_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Run()
	entries, shortest, longest := 0, math.MaxInt, 0
	for _, n := range in.World.Nodes {
		l := len(n.Log.Entries)
		entries += l
		shortest, longest = min(shortest, l), max(longest, l)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = in.Finish()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(entries)
	t.Logf("Finish allocates %.2f B per entry over %d entries (logs of %d to %d)", perEntry, entries, shortest, longest)
	if perEntry > bytesBudget {
		t.Errorf("Finish allocates %.2f B per logged entry, want at most %v", perEntry, bytesBudget)
	}
}
