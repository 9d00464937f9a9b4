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
// arrive, and fits the model and charges the breakdown once, at Finish,
// the one read path for a finished node. It is the one way into
// the analysis: RecordBatch takes a node's whole log or one decoded batch
// of it, and Record one entry of a merged stream (NetworkAnalyzer.Consume),
// so it can consume a trace as it streams off disk. Memory is
// O(intervals + segments), never O(entries) — for a multi-megabyte trace
// the raw entries exist only transiently in the decoder's batch buffer.
//
// A log whose clock steps back (see trace.Unwrapper) cannot be analyzed:
// the analyzer skips the entry, keeps the first such error, and Finish
// returns it.
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
	// closed, an is the node's Analysis and fail says why the regression
	// could not fit, if it could not.
	closed    bool
	an        Analysis
	fail      regFailure
	scratch   regScratch // the regression's working tables
	constOnly Regression // the model of a log the regression cannot fit
	charge    charger    // the breakdown's kernel and sums
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

// RecordBatch consumes a batch of events. It first reserves room for
// everything the batch can add (see Reserve), so a short log — most nodes
// of a large network log a few dozen entries — sizes each table and
// timeline once instead of growing it from empty. Only capacities change:
// the result is exactly that of calling Record on every entry.
func (s *StreamAnalyzer) RecordBatch(entries []core.Entry) {
	s.Reserve(entries)
	for _, e := range entries {
		s.Record(e)
	}
}

// Reserve makes room for everything recording entries next would add, in
// one counting pass over them (see batchCounts), and records nothing. Only
// capacities change. A caller that resets one analyzer for node after node
// reserves for the longest log right after the first Reset, so no later
// node regrows a table that an earlier, shorter one sized.
func (s *StreamAnalyzer) Reserve(entries []core.Entry) {
	var c batchCounts
	c.count(entries)
	s.ivb.reserve(len(entries), &c.power)
	s.tlb.reserve(&c.single, &c.multi)
	s.stb.reserve(&c.power)
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

// Reset readies the analyzer for another node's stream, with that node's
// meter quantum and voltage, under the given dictionary and the same
// options. The analyzer is then in the state of a fresh one except that
// every table keeps its capacity, so a caller analyzing many nodes one
// after another — across runs too, each with its own dictionary — sizes its
// tables once instead of once per node. The state vectors the analyzer has
// interned are kept too, by key, and a later node that enters one shares
// it; a vector never changes once interned. Reset reuses the memory of the
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
	s.closed, s.fail = false, regFailure{}
}

// Finish closes the stream, fits the node's power model and charges its
// breakdown, once per stream: a second call returns the same Analysis. The
// Analysis belongs to the analyzer and shares its tables, the timelines
// among them: it stays valid until the next Reset, and the analyzer must
// not record again before one. On a log the regression cannot fit, Reg is
// a constant-only model the analyzer owns, and RegressionErr says why,
// formatted only when read.
func (s *StreamAnalyzer) Finish() (*Analysis, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.count < 2 {
		return nil, fmt.Errorf("analysis: log has %d entries; need at least 2", s.count)
	}
	a := &s.an
	if s.closed {
		return a, nil
	}
	s.closed = true
	s.tlb.close(s.endUS)
	s.stb.close(s.endUS)
	*a = Analysis{
		Node:        s.node,
		PulseUJ:     s.pulseUJ,
		Volts:       s.volts,
		Dict:        s.dict,
		Opts:        s.opts,
		StartUS:     s.startUS,
		EndUS:       s.endUS,
		TotalPulses: s.lastIC - s.firstIC, // uint32 arithmetic handles wrap
		Intervals:   s.ivb.out,
		Vectors:     s.ivb.vecs,
		Single:      s.tlb.single,
		Multi:       s.tlb.multi,
		States:      s.stb.segs,
	}
	a.Reg, s.fail = s.scratch.run(s.ivb.out, s.ivb.vecs, s.pulseUJ, s.opts.Weighted)
	if s.fail.failed() {
		// Degrade to a constant-only model so time breakdowns and total
		// energy still work on logs without separable power states.
		s.constOnly = Regression{}
		if span := a.Span(); span > 0 {
			s.constOnly.ConstMW = float64(a.TotalPulses) * s.pulseUJ / float64(span) * 1000
		}
		a.Reg, a.RegressionErr = &s.constOnly, &s.fail
	}
	a.ByActivity = s.charge.node(a)
	return a, nil
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
// Each node keeps its own analyzer, never reset, so every Analysis in the
// Network stays valid.
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
