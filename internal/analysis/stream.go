package analysis

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/units"
)

// StreamAnalyzer runs the full offline pipeline over an event stream in a
// single pass, without materializing the log: it unwraps timestamps, builds
// state intervals and activity/state timelines incrementally as entries
// arrive, and runs the regression once at Finish. It is the one way into
// the analysis: RecordBatch takes a node's whole log or one decoded batch
// of it, and Record one entry of a merged stream (NetworkAnalyzer.Consume),
// so it can consume a trace as it streams off disk. Memory is
// O(intervals + segments), never O(entries) — for a multi-megabyte trace
// the raw entries exist only transiently in the decoder's batch buffer.
//
// A log whose clock steps back (see trace.Unwrapper) cannot be analyzed:
// the analyzer skips the entry, keeps the first such error, and Finish and
// Breakdown return it.
type StreamAnalyzer struct {
	node    core.NodeID
	pulseUJ float64
	volts   units.Volts
	dict    *core.Dictionary
	opts    Options

	uw  trace.Unwrapper
	err error // the first clock step back

	count           int
	startUS, endUS  int64
	firstIC, lastIC uint32

	ivb *intervalBuilder
	tlb *timelineBuilder
	stb stateTimelineBuilder

	// Set once the stream is closed: the timelines' open segments are
	// closed, and fit and fail hold the node's model and why the
	// regression could not fit, if it could not.
	closed    bool
	fit       *Regression
	fail      regFailure
	scratch   regScratch // the regression's working tables
	constOnly Regression // the model of a log the regression cannot fit
	charge    charger    // Breakdown's kernel and sums
}

// NewStreamAnalyzer creates a single-pass analyzer for one node's stream.
// PulseUJ is the meter's energy quantum and volts the supply voltage. dict
// may be nil for an analyzer that is Reset before it records.
func NewStreamAnalyzer(node core.NodeID, pulseUJ float64, volts units.Volts, dict *core.Dictionary, opts Options) *StreamAnalyzer {
	return &StreamAnalyzer{
		node:    node,
		pulseUJ: pulseUJ,
		volts:   volts,
		dict:    dict,
		opts:    opts,
		ivb:     newIntervalBuilder(),
		tlb:     newTimelineBuilder(dict.IsProxy),
	}
}

// Record consumes one event.
func (s *StreamAnalyzer) Record(e core.Entry) {
	at, err := s.uw.At(e.Time)
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	if s.count == 0 {
		s.startUS = at
		s.firstIC = e.IC
	}
	s.endUS = at
	s.lastIC = e.IC
	s.count++

	s.ivb.add(e, at)
	s.tlb.add(e, at)
	s.stb.add(e, at)
}

// RecordBatch consumes a batch of events. One counting pass over the batch
// first reserves room for everything the batch can add (see batchCounts),
// so a short log — most nodes of a large network log a few dozen entries —
// sizes each table and timeline once instead of growing it from empty.
// Only capacities change: the result is exactly that of calling Record on
// every entry.
func (s *StreamAnalyzer) RecordBatch(entries []core.Entry) {
	var c batchCounts
	c.count(entries)
	s.ivb.reserve(len(entries), &c.power)
	s.tlb.reserve(&c.single, &c.multi)
	s.stb.reserve(&c.power)
	for _, e := range entries {
		s.Record(e)
	}
}

// batchCounts is RecordBatch's counting pass: per resource, how many power-
// state, single-activity and multi-activity entries a batch holds.
type batchCounts struct {
	power, single, multi resCounts
}

// resCounts counts one kind of entry by resource id.
type resCounts struct {
	n    [1 << 8]int32 // entries per resource id (a ResourceID is one byte)
	span int           // highest resource id counted, plus one; 0 for none
}

func (c *batchCounts) count(entries []core.Entry) {
	for _, e := range entries {
		switch e.Type {
		case core.EntryPowerState:
			c.power.add(e.Res)
		case core.EntryActivitySet, core.EntryActivityBind:
			c.single.add(e.Res)
		case core.EntryActivityAdd, core.EntryActivityRemove:
			c.multi.add(e.Res)
		}
	}
}

func (c *resCounts) add(res core.ResourceID) {
	c.n[res]++
	c.span = max(c.span, int(res)+1)
}

// Events returns how many entries have been consumed.
func (s *StreamAnalyzer) Events() int { return s.count }

// Reset readies the analyzer for another node's stream, with that node's
// meter quantum and voltage, under the given dictionary and the same
// options. The analyzer is then in the state of a fresh one except that
// every table keeps its capacity, so a caller analyzing many nodes one
// after another — across runs too, each with its own dictionary — sizes its
// tables once instead of once per node. Reset reuses the memory of the
// Analysis the last Finish returned, which is invalid from then on: read
// what is needed from it before resetting.
func (s *StreamAnalyzer) Reset(node core.NodeID, pulseUJ float64, volts units.Volts, dict *core.Dictionary) {
	s.node, s.pulseUJ, s.volts = node, pulseUJ, volts
	if dict != s.dict {
		// Bound only on a change: a method value allocates.
		s.dict, s.tlb.isProxy = dict, dict.IsProxy
	}
	s.uw, s.err = trace.Unwrapper{}, nil
	s.count, s.startUS, s.endUS, s.firstIC, s.lastIC = 0, 0, 0, 0, 0
	s.ivb.reset()
	s.tlb.reset()
	s.stb.reset()
	s.closed, s.fit, s.fail = false, nil, regFailure{}
}

// model closes the stream and fits the node's power model, once per
// stream: the steps Finish and Breakdown share. On a log the regression
// cannot fit, it returns a constant-only model, which the analyzer owns,
// and why the fit failed, unformatted.
func (s *StreamAnalyzer) model() (*Regression, regFailure, error) {
	if s.err != nil {
		return nil, regFailure{}, s.err
	}
	if s.count < 2 {
		return nil, regFailure{}, fmt.Errorf("analysis: log has %d entries; need at least 2", s.count)
	}
	if !s.closed {
		s.tlb.close(s.endUS)
		s.stb.close(s.endUS)
		s.fit, s.fail = s.scratch.run(s.ivb.out, s.ivb.vecs, s.pulseUJ, s.opts.Weighted)
		if s.fail.failed() {
			// Degrade to a constant-only model so time breakdowns and
			// total energy still work on logs without separable power
			// states.
			constMW := 0.0
			if span := s.endUS - s.startUS; span > 0 {
				constMW = float64(s.lastIC-s.firstIC) * s.pulseUJ / float64(span) * 1000
			}
			s.constOnly = Regression{ConstMW: constMW}
			s.fit = &s.constOnly
		}
		s.closed = true
	}
	return s.fit, s.fail, nil
}

// Finish closes the stream, runs the regression, and returns the completed
// Analysis: the retained view, with the per-resource timelines as maps, that
// NetworkAnalyzer and Instance.Network hand out. The Analysis shares the
// analyzer's tables: it stays valid until the next Reset, and the analyzer
// must not record again before one.
func (s *StreamAnalyzer) Finish() (*Analysis, error) {
	reg, fail, err := s.model()
	if err != nil {
		return nil, err
	}
	var regErr error
	if fail.failed() {
		regErr = fail.err()
		reg = &Regression{PowerMW: make(map[Predictor]float64), ConstMW: reg.ConstMW}
	}
	single, multi := s.tlb.views()
	return &Analysis{
		Node:          s.node,
		PulseUJ:       s.pulseUJ,
		Volts:         s.volts,
		Dict:          s.dict,
		Opts:          s.opts,
		StartUS:       s.startUS,
		EndUS:         s.endUS,
		TotalPulses:   s.lastIC - s.firstIC, // uint32 arithmetic handles wrap
		Intervals:     s.ivb.out,
		Vectors:       s.ivb.vecs,
		Reg:           reg,
		RegressionErr: regErr,
		Single:        single,
		Multi:         multi,
		States:        s.stb.views(),
	}, nil
}

// Breakdown is the map-free alternative to Finish for a caller that needs
// only the node's energy by activity. It closes the stream, fits the model
// as Finish does, and charges the node straight from the analyzer's
// per-resource tables through the kernel Analysis.EnergyByActivity runs,
// so its pairs, one per label with ConstLabel among them, hold exactly that
// map's sums. It builds no Analysis and none of its maps, and a log the
// regression cannot fit takes the constant-only model without its error
// being formatted. It also returns the meter's pulses and the span across
// the log, from which the node's energy and mean power follow as
// Analysis.TotalEnergyUJ and AveragePowerMW derive them. The pairs belong
// to the analyzer and stay valid until the next Reset. Breakdown and
// Finish may both be called on one stream, in either order.
func (s *StreamAnalyzer) Breakdown() (byActivity []LabelEnergy, pulses uint32, spanUS int64, err error) {
	reg, _, err := s.model()
	if err != nil {
		return nil, 0, 0, err
	}
	c := &s.charge
	c.reset(s.opts, reg)
	for i := range s.stb.res {
		states := s.stb.res[i].segs
		if len(states) == 0 {
			continue
		}
		var single *ActTimeline
		var multi *MultiTimeline
		if i < len(s.tlb.single) && s.tlb.single[i].seen {
			single = &ActTimeline{Res: core.ResourceID(i), Segs: s.tlb.single[i].segs}
		}
		if i < len(s.tlb.multi) && s.tlb.multi[i].seen {
			multi = &MultiTimeline{Res: core.ResourceID(i), Segs: s.tlb.multi[i].segs}
		}
		c.resource(core.ResourceID(i), states, single, multi)
	}
	spanUS = s.endUS - s.startUS
	return c.finish(spanUS), s.lastIC - s.firstIC, spanUS, nil
}

// NetworkAnalyzer holds one StreamAnalyzer per node and aggregates their
// results into a Network. A caller holding per-node logs feeds each one
// straight to the analyzer AddNode returns; a merged network-wide stream
// (decoded files, a back channel) goes through Consume, which demultiplexes
// it by node. Either way each analyzer sees exactly its own node's entries
// in log order, so both feeds give the same Network.
type NetworkAnalyzer struct {
	dict    *core.Dictionary
	opts    Options
	pulseUJ float64
	volts   units.Volts

	nodes map[core.NodeID]*StreamAnalyzer
}

// NewNetworkAnalyzer creates a demultiplexing analyzer. pulseUJ and volts
// apply to every node; use AddNode to override per node before consuming.
func NewNetworkAnalyzer(dict *core.Dictionary, opts Options, pulseUJ float64, volts units.Volts) *NetworkAnalyzer {
	return &NetworkAnalyzer{
		dict:    dict,
		opts:    opts,
		pulseUJ: pulseUJ,
		volts:   volts,
		nodes:   make(map[core.NodeID]*StreamAnalyzer),
	}
}

// AddNode registers a node with its own meter quantum and voltage and
// returns its analyzer, ready to record the node's log.
func (na *NetworkAnalyzer) AddNode(node core.NodeID, pulseUJ float64, volts units.Volts) *StreamAnalyzer {
	sa := NewStreamAnalyzer(node, pulseUJ, volts, na.dict, na.opts)
	na.nodes[node] = sa
	return sa
}

// Consume routes one stamped entry to its node's analyzer, creating it with
// the default parameters on first sight.
func (na *NetworkAnalyzer) Consume(s trace.Stamped) {
	sa := na.nodes[s.Node]
	if sa == nil {
		sa = NewStreamAnalyzer(s.Node, na.pulseUJ, na.volts, na.dict, na.opts)
		na.nodes[s.Node] = sa
	}
	sa.Record(s.Entry)
}

// Finish completes every node's analysis in ascending node order, so an
// error names the lowest failing node, and returns the network aggregate.
func (na *NetworkAnalyzer) Finish() (*Network, error) {
	net := &Network{Nodes: make(map[core.NodeID]*Analysis, len(na.nodes)), Dict: na.dict}
	for _, node := range slices.Sorted(maps.Keys(na.nodes)) {
		a, err := na.nodes[node].Finish()
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", node, err)
		}
		net.Nodes[node] = a
	}
	return net, nil
}
