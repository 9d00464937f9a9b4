package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/units"
)

// Workload sizes. Each keeps the character README.md describes at a length
// that gives a run many operations to take medians over.
const (
	relay10kSeconds = 4   // simulated seconds of the 10 000-node relay
	ctpSeconds      = 16  // simulated seconds of the mobile CTP network
	lplSeconds      = 120 // simulated seconds of each LPL run
	lplSeeds        = 16  // replicas of each of the sweep's 8 configurations
	offlineSeconds  = 60  // simulated seconds of the offline bounce log
	relayVariants   = 4   // relay placements each run cycles through
	ctpVariants     = 4   // CTP mobility and traffic draws each run cycles through
	offlineVariants = 4   // bounce logs each trace-offline run cycles through
)

// runSlice is the simulated slice the traced pass advances World.Run by,
// sampling the event queue's depth at every boundary.
const runSlice = 100 * units.Millisecond

// workloads maps each workload name to its preparation, which derives every
// input from the seed.
var workloads = map[string]func(seed uint64) (*bench, error){
	"relay-10k":     prepareRelay10k,
	"ctp-mobile":    prepareCTPMobile,
	"lpl-sweep":     prepareLPLSweep,
	"trace-offline": prepareTraceOffline,
}

func workloadNames() []string { return slices.Sorted(maps.Keys(workloads)) }

// relay10kSpec is Benchmark10kNodeRelay's spec with a shorter run and its
// one origin on the fixed 5 ms period spread over 8 origins on a 40 ms
// period (the same offered load): 10 000 relay nodes placed as a random
// geometric graph drawn from the seed, every node on a battery too large
// to deplete.
func relay10kSpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		App:        "relay",
		Seed:       seed,
		Nodes:      10000,
		Placement:  scenario.PlacementRGG,
		Origins:    8,
		PeriodUS:   int64(40 * units.Millisecond),
		DurationUS: int64(relay10kSeconds * units.Second),
		BatteryUAH: 50000,
	}
}

// variantSpecs derives n copies of base, each under its own seed derived
// from the workload seed the way Matrix.Expand derives replica seeds.
func variantSpecs(base scenario.Spec, n int) []scenario.Spec {
	specs := make([]scenario.Spec, n)
	key := base.ConfigKey()
	for i := range specs {
		specs[i] = base
		specs[i].Seed = scenario.DeriveSeed(base.Seed, key, i)
	}
	return specs
}

func prepareRelay10k(seed uint64) (*bench, error) {
	spec := relay10kSpec(seed)
	return singleRun(variantSpecs(spec, relayVariants), 0, func(in *scenario.Instance, r *scenario.Result) error {
		if len(r.Nodes) != spec.Nodes {
			return fmt.Errorf("result has %d nodes, want %d", len(r.Nodes), spec.Nodes)
		}
		for _, n := range r.Nodes {
			if n.Entries < 1 {
				return fmt.Errorf("node %d logged no entry", n.Node)
			}
		}
		return nil
	}), nil
}

// ctpMobileSpec is a 64-node grid relay routed by the collection tree, with
// every node walking random waypoints, eight origins driven by heavy-tailed
// ON/OFF traffic, and the four centre nodes on batteries that deplete
// mid-run.
func ctpMobileSpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		App:       "relay",
		Seed:      seed,
		Nodes:     64,
		Placement: scenario.PlacementGrid,
		Routing:   scenario.RoutingCTP,
		Mobility:  scenario.MobilityWaypoint,
		SpeedMPS:  4,
		Origins:   8,
		Traffic: &traffic.Spec{
			Shape: traffic.ShapeOnOff, RPS: 4,
			OnAlpha: 1.5, OffAlpha: 1.5,
			OnMinUS: int64(200 * units.Millisecond), OffMinUS: int64(500 * units.Millisecond),
		},
		BatteryNodeUAH: map[string]float64{"28": 48, "29": 48, "36": 48, "37": 48},
		DurationUS:     int64(ctpSeconds * units.Second),
	}
}

func prepareCTPMobile(seed uint64) (*bench, error) {
	specs := variantSpecs(ctpMobileSpec(seed), ctpVariants)
	sends, err := trafficSends(specs[0])
	if err != nil {
		return nil, err
	}
	return singleRun(specs, sends, func(in *scenario.Instance, r *scenario.Result) error {
		switch {
		case r.Deaths < 1:
			return errors.New("no battery death")
		case r.Metrics["net_parent_changes"] < 1:
			return errors.New("no parent change")
		case r.Metrics["delivered"] <= 0:
			return errors.New("nothing delivered")
		}
		return nil
	}), nil
}

// trafficSends counts the send ticks the traffic engine schedules for the
// spec's origins within the run.
func trafficSends(spec scenario.Spec) (int, error) {
	srcs, err := traffic.Sources(spec.Traffic, spec.Seed, apps.RelayOrigins(spec.Nodes, spec.Origins))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, src := range srcs {
		for {
			at, ok := src.Next()
			if !ok || at > spec.Duration() {
				break
			}
			n++
		}
	}
	return n, nil
}

// singleRun is the bench of a workload whose operation is one simulation
// run: Build, Run and StampEnd, then Instance.Finish — the path
// scenario.RunSpec takes.
func singleRun(specs []scenario.Spec, sends int, check func(*scenario.Instance, *scenario.Result) error) *bench {
	b := &bench{variants: len(specs)}
	b.op = func(v int) (*opResult, error) {
		var in *scenario.Instance
		var res *scenario.Result
		var setup time.Duration
		var events int
		c, err := timeIt(func() (err error) {
			start := time.Now()
			in, err = scenario.Build(specs[v])
			setup = time.Since(start)
			if err != nil {
				return err
			}
			events = in.World.Run(in.Spec.Duration())
			in.World.StampEnd()
			res, err = in.Finish()
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := check(in, res); err != nil {
			return nil, err
		}
		r, err := runResult(c, setup, events, res)
		if err != nil {
			return nil, err
		}
		r.variant = v
		return r, nil
	}
	b.traced = func(tr *tracer) (*opResult, error) {
		var st runStats
		wall, err := tr.profiled(func(op int) (err error) {
			st, err = tracedRun(tr, op, specs[0])
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := check(st.in, st.res); err != nil {
			return nil, err
		}
		r, err := runResult(cost{wall: wall}, st.setup, st.events, st.res)
		if err != nil {
			return nil, err
		}
		r.layer = make(map[string]float64)
		st.counters(r.layer)
		if err := replay(tr, st.in.World, r.layer); err != nil {
			return nil, err
		}
		r.layer["traffic.sends"] = float64(sends)
		ratios(r.layer)
		return r, nil
	}
	return b
}

// runResult checks one run's Result and fills in what the metrics need.
func runResult(c cost, setup time.Duration, events int, res *scenario.Result) (*opResult, error) {
	if res.Error != "" {
		return nil, errors.New(res.Error)
	}
	fp, err := fingerprint(res)
	if err != nil {
		return nil, err
	}
	return &opResult{
		cost: c, setup: setup,
		runs: 1, entries: res.Entries, gapPct: resultGap(res),
		fingerprint: fp, events: events, output: res,
	}, nil
}

// resultGap is a run's attribution gap: how far the per-activity breakdown
// (the "Const." row included) is from the metered energy, in percent.
func resultGap(r *scenario.Result) float64 {
	var attributed float64
	for _, name := range slices.Sorted(maps.Keys(r.ActivityUJ)) {
		attributed += r.ActivityUJ[name]
	}
	return gapPct(attributed, r.TotalUJ)
}

func gapPct(attributed, metered float64) float64 {
	if metered == 0 {
		return 0
	}
	return math.Abs(attributed-metered) / metered * 100
}

// runStats is one traced run.
type runStats struct {
	in          *scenario.Instance
	res         *scenario.Result
	setup       time.Duration
	events, hwm int
}

// tracedRun builds, runs and finishes one spec with a span per stage under
// parent. World.Run advances in runSlice steps so the queue depth can be
// sampled; the dispatch order, and so the Result, is the same as one Run.
func tracedRun(tr *tracer, parent int, spec scenario.Spec) (st runStats, err error) {
	s := tr.start("scenario.build", parent)
	st.in, err = scenario.Build(spec)
	st.setup = tr.stop(s)
	if err != nil {
		return st, err
	}
	s = tr.start("mote.run", parent)
	w := st.in.World
	for t, until := units.Ticks(0), st.in.Spec.Duration(); t < until; {
		t = min(t+runSlice, until)
		st.events += w.Run(t)
		st.hwm = max(st.hwm, w.Sim.Pending())
	}
	w.StampEnd()
	tr.stop(s)
	s = tr.start("scenario.finish", parent)
	st.res, err = st.in.Finish()
	tr.stop(s)
	return st, err
}

// counters adds the run's public counters to layer. Ratios are derived once
// every run has been added (see ratios).
func (st runStats) counters(layer map[string]float64) {
	w, r := st.in.World, st.res
	var dropped, cca, positives uint64
	for _, n := range w.Nodes {
		dropped += n.Trk.Dropped()
		if n.Radio != nil {
			s, p := n.Radio.CCAStats()
			cca += s
			positives += p
		}
	}
	var attempts, delivered uint64
	for _, l := range r.Links {
		attempts += l.Attempts
		delivered += l.Delivered
	}
	m := r.Metrics
	for k, v := range map[string]float64{
		"mote.events":           float64(st.events),
		"core.entries":          float64(r.Entries),
		"core.dropped":          float64(dropped),
		"medium.frames":         float64(w.Medium.Frames()),
		"medium.collisions":     float64(r.Collisions),
		"medium.link_attempts":  float64(attempts),
		"medium.link_delivered": float64(delivered),
		"radio.cca_samples":     float64(cca),
		"radio.cca_positives":   float64(positives),
		"net.beacons_tx":        m["net_beacons_tx"],
		"net.beacons_rx":        m["net_beacons_rx"],
		"net.parent_changes":    m["net_parent_changes"],
		"net.no_route":          m["net_no_route"],
		"apps.generated":        m["generated"],
		"apps.delivered":        m["delivered"],
		"apps.dropped":          m["dropped"],
		"apps.wakeups":          m["wakeups"],
		"apps.false_positives":  m["false_positives"],
		"power.deaths":          float64(r.Deaths),
	} {
		layer[k] += v
	}
	layer["sim.pending_hwm"] = max(layer["sim.pending_hwm"], float64(st.hwm))
	if r.Deaths > 0 {
		first := float64(r.FirstDeathUS) / 1e6
		if cur, ok := layer["power.first_death_s"]; !ok || first < cur {
			layer["power.first_death_s"] = first
		}
	}
}

// replay repeats, stage by stage, the analysis Instance.Finish ran on the
// same finished world — merge, consume (intervals, timelines, regression)
// and the per-activity breakdown — each in its own span. It runs after the
// traced operation, outside its span and CPU profile.
func replay(tr *tracer, w *mote.World, layer map[string]float64) error {
	root := tr.start("analysis.replay", 0)
	defer tr.stop(root)

	s := tr.start("trace.merge", root)
	total := 0
	for _, n := range w.Nodes {
		total += len(n.Log.Entries)
	}
	stamped := make([]trace.Stamped, 0, total)
	m, err := w.Merged()
	if err == nil {
		stamped, err = drain(m, stamped)
	}
	tr.stop(s)
	if err != nil {
		return err
	}

	s = tr.start("analysis.consume", root)
	na := analysis.NewNetworkAnalyzer(w.Dict, analysis.DefaultOptions(), 0, 0)
	for _, n := range w.Nodes {
		na.AddNode(n.ID, n.Meter.PulseEnergy(), n.Volts)
	}
	for _, e := range stamped {
		na.Consume(e)
	}
	net, err := na.Finish()
	tr.stop(s)
	if err != nil {
		return err
	}

	s = tr.start("analysis.breakdown", root)
	byAct := net.EnergyByActivity()
	tr.stop(s)
	analysisCounters(layer, len(stamped), len(w.Nodes), net, byAct)
	return nil
}

func drain(m *trace.Merger, out []trace.Stamped) ([]trace.Stamped, error) {
	for {
		s, err := m.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
}

// analysisCounters adds the size of one analysis to layer: entries and
// streams merged, segments the breakdown iterates over, labels it charges,
// and regression state groups.
func analysisCounters(layer map[string]float64, entries, streams int, net *analysis.Network, byAct map[core.Label]float64) {
	var segs, groups int
	for _, id := range slices.Sorted(maps.Keys(net.Nodes)) {
		a := net.Nodes[id]
		for _, st := range a.States {
			segs += len(st)
		}
		for _, tl := range a.Single {
			segs += len(tl.Segs)
		}
		for _, mt := range a.Multi {
			segs += len(mt.Segs)
		}
		if a.Reg != nil {
			groups += len(a.Reg.Groups)
		}
	}
	layer["trace.entries"] += float64(entries)
	layer["trace.streams"] += float64(streams)
	layer["analysis.segments"] += float64(segs)
	layer["analysis.labels"] += float64(len(byAct))
	layer["linalg.groups"] += float64(groups)
}

// lplMatrix is examples/lifetime's matrix scaled up: LPL on the Wi-Fi
// channel, battery capacity × check period × harvest, replicated over
// seeds derived from the workload seed.
func lplMatrix(seed uint64) *scenario.Matrix {
	return &scenario.Matrix{
		Base: scenario.Spec{
			App:        "lpl",
			Seed:       seed,
			DurationUS: int64(lplSeconds * units.Second),
			Channel:    17,
		},
		Sweep: map[string][]any{
			"battery_uah":     {16.0, 256.0},
			"check_period_us": {int64(250 * units.Millisecond), int64(500 * units.Millisecond)},
			"harvest":         {nil, map[string]any{"profile": "constant", "ua": 500}},
		},
		Seeds: lplSeeds,
	}
}

// sweepOutput is one lpl-sweep operation's output.
type sweepOutput struct {
	Results   []*scenario.Result       `json:"results"`
	Aggregate *analysis.Aggregate      `json:"aggregate"`
	Lifetimes *analysis.LifetimeReport `json:"lifetimes"`
}

func prepareLPLSweep(seed uint64) (*bench, error) {
	m := lplMatrix(seed)
	workers := runtime.NumCPU()
	b := &bench{variants: 1}
	b.op = func(int) (*opResult, error) {
		var out sweepOutput
		var setup time.Duration
		c, err := timeIt(func() error {
			start := time.Now()
			specs, err := m.Expand()
			setup = time.Since(start)
			if err != nil {
				return err
			}
			out.Results = (&scenario.Runner{Workers: workers}).Run(specs)
			out.Aggregate = scenario.Aggregate(out.Results)
			out.Lifetimes = scenario.Lifetimes(out.Results)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return sweepResult(c, setup, 0, &out)
	}
	b.traced = func(tr *tracer) (*opResult, error) {
		var out sweepOutput
		var specs []scenario.Spec
		var mu sync.Mutex
		layer := make(map[string]float64)
		wall, err := tr.profiled(func(op int) (err error) {
			s := tr.start("scenario.expand", op)
			specs, err = m.Expand()
			tr.stop(s)
			if err != nil {
				return err
			}
			pool := tr.start("scenario.runner", op)
			out.Results = make([]*scenario.Result, len(specs))
			err = parallel(len(specs), workers, func(i int) error {
				job := tr.start("scenario.run", pool)
				defer tr.stop(job)
				st, err := tracedRun(tr, job, specs[i])
				if err != nil {
					return err
				}
				st.res.Run = i
				out.Results[i] = st.res
				mu.Lock()
				defer mu.Unlock()
				st.counters(layer)
				return nil
			})
			tr.stop(pool)
			if err != nil {
				return err
			}
			s = tr.start("scenario.fold", op)
			out.Aggregate = scenario.Aggregate(out.Results)
			out.Lifetimes = scenario.Lifetimes(out.Results)
			tr.stop(s)
			return nil
		})
		if err != nil {
			return nil, err
		}
		r, err := sweepResult(cost{wall: wall}, 0, int(layer["mote.events"]), &out)
		if err != nil {
			return nil, err
		}
		// The replay needs each run's world, which the pool does not keep:
		// rebuild and rerun every spec untimed, then replay its analysis.
		err = parallel(len(specs), workers, func(i int) error {
			in, err := scenario.Build(specs[i])
			if err != nil {
				return err
			}
			in.Run()
			c := make(map[string]float64)
			if err := replay(tr, in.World, c); err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			for k, v := range c {
				layer[k] += v
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		ratios(layer)
		r.layer = layer
		return r, nil
	}
	return b, nil
}

// sweepResult checks an lpl-sweep operation: every run succeeded, and the
// sweep has both battery deaths and survivors.
func sweepResult(c cost, setup time.Duration, events int, out *sweepOutput) (*opResult, error) {
	r := &opResult{cost: c, setup: setup, events: events, output: out}
	died, survived := 0, 0
	for i, res := range out.Results {
		if res.Error != "" {
			return nil, fmt.Errorf("run %d: %s", i, res.Error)
		}
		if res.Deaths > 0 {
			died++
		} else {
			survived++
		}
		r.runs++
		r.entries += res.Entries
		r.gapPct = max(r.gapPct, resultGap(res))
	}
	if died == 0 || survived == 0 {
		return nil, fmt.Errorf("sweep has %d runs with deaths and %d without; want both", died, survived)
	}
	fp, err := fingerprint(out)
	if err != nil {
		return nil, err
	}
	r.fingerprint = fp
	return r, nil
}

// parallel calls fn for 0..n-1 on workers goroutines and waits for them;
// it returns every error (a panic counts as one).
func parallel(n, workers int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[w] = fmt.Errorf("panic: %v", p)
				}
			}()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// offlineNode is one node's log as the mote would dump it: the 12-byte wire
// format plus the meter quantum and supply voltage analysis needs.
type offlineNode struct {
	id      core.NodeID
	wire    []byte
	pulseUJ float64
	volts   units.Volts
}

// offlineInput is one recorded network log and what analysis needs with
// it: each node's log, the name dictionary, and the entry count.
type offlineInput struct {
	nodes   []offlineNode
	dict    *core.Dictionary
	encoded int
}

// generateOffline simulates the 2-node bounce exchange and encodes each
// node's log.
func generateOffline(spec scenario.Spec) (*offlineInput, error) {
	in, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	in.Run()
	out := &offlineInput{dict: in.World.Dict}
	for _, n := range in.World.Nodes {
		out.nodes = append(out.nodes, offlineNode{
			id:      n.ID,
			wire:    trace.Marshal(n.Log.Entries),
			pulseUJ: n.Meter.PulseEnergy(),
			volts:   n.Volts,
		})
		out.encoded += len(n.Log.Entries)
	}
	return out, nil
}

// merge starts decoding and merging the input and returns the analyzer to
// feed.
func (in *offlineInput) merge() (*trace.Merger, *analysis.NetworkAnalyzer, error) {
	streams := make([]trace.ReaderStream, len(in.nodes))
	na := analysis.NewNetworkAnalyzer(in.dict, analysis.DefaultOptions(), 0, 0)
	for i, n := range in.nodes {
		streams[i] = trace.ReaderStream{Node: n.id, R: bytes.NewReader(n.wire)}
		na.AddNode(n.id, n.pulseUJ, n.volts)
	}
	m, err := trace.MergeReaders(streams, 0)
	return m, na, err
}

// offlineOutput is one trace-offline operation's output in a stable order.
type offlineOutput struct {
	Activities []labelEnergy `json:"activities"`
	Nodes      []nodeEnergy  `json:"nodes"`
	// net is the analysis itself, which the fingerprint leaves out but
	// heap_live_mb counts as output.
	net *analysis.Network
}

type labelEnergy struct {
	Label core.Label `json:"label"`
	UJ    float64    `json:"uj"`
}

type nodeEnergy struct {
	Node    core.NodeID `json:"node"`
	SpanUS  int64       `json:"span_us"`
	MeterUJ float64     `json:"meter_uj"`
	ConstMW float64     `json:"const_mw"`
}

func prepareTraceOffline(seed uint64) (*bench, error) {
	specs := variantSpecs(scenario.Spec{
		App:        "bounce",
		Seed:       seed,
		DurationUS: int64(offlineSeconds * units.Second),
	}, offlineVariants)
	b := &bench{variants: len(specs)}
	inputs := make([]*offlineInput, len(specs))
	for v, spec := range specs {
		in, err := generateOffline(spec)
		if err != nil {
			return nil, err
		}
		inputs[v] = in
	}

	b.op = func(v int) (*opResult, error) {
		in := inputs[v]
		// The set-up, outside the timed span: generate the input again; it
		// must come out byte-identical.
		start := time.Now()
		again, err := generateOffline(specs[v])
		setup := time.Since(start)
		if err != nil {
			return nil, err
		}
		for j, n := range again.nodes {
			if !bytes.Equal(n.wire, in.nodes[j].wire) {
				return nil, fmt.Errorf("input generation is not deterministic: node %d's log differs", n.id)
			}
		}
		again = nil
		runtime.GC()

		var net *analysis.Network
		var byAct map[core.Label]float64
		decoded := 0
		c, err := timeIt(func() error {
			m, na, err := in.merge()
			if err != nil {
				return err
			}
			for {
				s, err := m.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				na.Consume(s)
				decoded++
			}
			if net, err = na.Finish(); err != nil {
				return err
			}
			byAct = net.EnergyByActivity()
			return nil
		})
		if err != nil {
			return nil, err
		}
		r, err := offlineResult(c, decoded, in.encoded, net, byAct)
		if err != nil {
			return nil, err
		}
		r.variant, r.setup = v, setup
		return r, nil
	}
	b.traced = func(tr *tracer) (*opResult, error) {
		in := inputs[0]
		var net *analysis.Network
		var byAct map[core.Label]float64
		var stamped []trace.Stamped
		wall, err := tr.profiled(func(op int) error {
			s := tr.start("trace.merge", op)
			m, na, err := in.merge()
			if err == nil {
				stamped, err = drain(m, make([]trace.Stamped, 0, in.encoded))
			}
			tr.stop(s)
			if err != nil {
				return err
			}
			s = tr.start("analysis.consume", op)
			for _, e := range stamped {
				na.Consume(e)
			}
			net, err = na.Finish()
			tr.stop(s)
			if err != nil {
				return err
			}
			s = tr.start("analysis.breakdown", op)
			byAct = net.EnergyByActivity()
			tr.stop(s)
			return nil
		})
		if err != nil {
			return nil, err
		}
		r, err := offlineResult(cost{wall: wall}, len(stamped), in.encoded, net, byAct)
		if err != nil {
			return nil, err
		}
		r.layer = map[string]float64{"core.entries": float64(in.encoded)}
		analysisCounters(r.layer, len(stamped), len(in.nodes), net, byAct)
		ratios(r.layer)
		return r, nil
	}
	return b, nil
}

// offlineResult checks a trace-offline operation: every encoded entry was
// decoded and analyzed.
func offlineResult(c cost, decoded, encoded int, net *analysis.Network, byAct map[core.Label]float64) (*opResult, error) {
	if decoded != encoded {
		return nil, fmt.Errorf("decoded %d entries, encoded %d", decoded, encoded)
	}
	out := &offlineOutput{net: net}
	var attributed float64
	for _, l := range slices.Sorted(maps.Keys(byAct)) {
		out.Activities = append(out.Activities, labelEnergy{l, byAct[l]})
		attributed += byAct[l]
	}
	for _, id := range slices.Sorted(maps.Keys(net.Nodes)) {
		a := net.Nodes[id]
		out.Nodes = append(out.Nodes, nodeEnergy{id, a.Span(), a.TotalEnergyUJ(), a.Reg.ConstMW})
	}
	fp, err := fingerprint(out)
	if err != nil {
		return nil, err
	}
	return &opResult{
		cost: c, runs: 1, entries: decoded,
		gapPct: gapPct(attributed, net.TotalEnergyUJ()), fingerprint: fp, output: out,
	}, nil
}
