package analysis

import (
	"fmt"
	"io"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/units"
)

// StreamAnalyzer runs the full offline pipeline over an event stream in a
// single pass, without materializing the log: it unwraps timestamps, builds
// state intervals and activity/state timelines incrementally as entries
// arrive, and runs the regression once at Finish. It implements core.Sink
// and core.BatchSink, so it can sit directly behind a Tee on a live tracker
// or consume a decoded trace as it streams off disk. Memory is O(intervals +
// segments), never O(entries) — for a multi-megabyte trace the raw entries
// exist only transiently in the decoder's batch buffer.
type StreamAnalyzer struct {
	node    core.NodeID
	pulseUJ float64
	volts   units.Volts
	dict    *core.Dictionary
	opts    Options

	uw trace.Unwrapper

	count           int
	startUS, endUS  int64
	firstIC, lastIC uint32

	ivb *IntervalBuilder
	tlb *TimelineBuilder
	stb *StateTimelineBuilder
}

// NewStreamAnalyzer creates a single-pass analyzer for one node's stream.
// PulseUJ is the meter's energy quantum and volts the supply voltage.
func NewStreamAnalyzer(node core.NodeID, pulseUJ float64, volts units.Volts, dict *core.Dictionary, opts Options) *StreamAnalyzer {
	return &StreamAnalyzer{
		node:    node,
		pulseUJ: pulseUJ,
		volts:   volts,
		dict:    dict,
		opts:    opts,
		ivb:     NewIntervalBuilder(),
		tlb:     NewTimelineBuilder(dict.IsProxy),
		stb:     NewStateTimelineBuilder(),
	}
}

// Record implements core.Sink: it consumes one event and never rejects it.
func (s *StreamAnalyzer) Record(e core.Entry) bool {
	at := s.uw.At(e.Time)
	if s.count == 0 {
		s.startUS = at
		s.firstIC = e.IC
	}
	s.endUS = at
	s.lastIC = e.IC
	s.count++

	s.ivb.Add(e, at)
	s.tlb.Add(e, at)
	s.stb.Add(e, at)
	return true
}

// RecordBatch implements core.BatchSink.
func (s *StreamAnalyzer) RecordBatch(entries []core.Entry) int {
	for _, e := range entries {
		s.Record(e)
	}
	return len(entries)
}

// Events returns how many entries have been consumed.
func (s *StreamAnalyzer) Events() int { return s.count }

// Finish closes the stream, runs the regression, and returns the completed
// Analysis. The analyzer must not be used afterwards.
func (s *StreamAnalyzer) Finish() (*Analysis, error) {
	if s.count < 2 {
		return nil, fmt.Errorf("analysis: log has %d entries; need at least 2", s.count)
	}
	intervals, vectors := s.ivb.Intervals(), s.ivb.Vectors()
	reg, regErr := RunRegression(intervals, vectors, s.pulseUJ, s.opts.Regression)
	totalPulses := s.lastIC - s.firstIC // uint32 arithmetic handles wrap
	if regErr != nil {
		// Degrade to a constant-only model so time breakdowns and total
		// energy still work on logs without separable power states.
		constMW := 0.0
		if span := s.endUS - s.startUS; span > 0 {
			constMW = float64(totalPulses) * s.pulseUJ / float64(span) * 1000
		}
		reg = &Regression{
			PowerMW: make(map[Predictor]float64),
			ConstMW: constMW,
		}
	}
	single, multi := s.tlb.Finish(s.endUS)
	states := s.stb.Finish(s.endUS)
	return &Analysis{
		Trace:         &NodeTrace{Node: s.node, PulseUJ: s.pulseUJ, Volts: s.volts},
		Dict:          s.dict,
		Opts:          s.opts,
		StartUS:       s.startUS,
		EndUS:         s.endUS,
		TotalPulses:   totalPulses,
		Intervals:     intervals,
		Vectors:       vectors,
		Reg:           reg,
		RegressionErr: regErr,
		Single:        single,
		Multi:         multi,
		States:        states,
	}, nil
}

// NetworkAnalyzer demultiplexes a merged network-wide stream into per-node
// StreamAnalyzers and aggregates the results into a Network — the streaming
// equivalent of analyzing each node's log separately and calling NewNetwork.
// One pass over the merged stream produces every node's breakdown.
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

// AddNode pre-registers a node with its own meter quantum and voltage.
func (na *NetworkAnalyzer) AddNode(node core.NodeID, pulseUJ float64, volts units.Volts) {
	na.nodes[node] = NewStreamAnalyzer(node, pulseUJ, volts, na.dict, na.opts)
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

// ConsumeAll drains a merger into the analyzer.
func (na *NetworkAnalyzer) ConsumeAll(m *trace.Merger) error {
	for {
		s, err := m.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		na.Consume(s)
	}
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
