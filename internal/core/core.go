package core

// Clock provides node-local time for log entries. On the real platform this
// is a 32 kHz/1 MHz hardware timer read costing 19 cycles (Table 4); in the
// reproduction the mote kernel provides it from simulated time.
type Clock interface {
	// NowMicros returns the node-local time in microseconds, truncated to
	// 32 bits exactly as the mote logs it.
	NowMicros() uint32
}

// Meter is the cumulative energy counter (the iCount interface). Reading it
// is cheap — "as cheaply as reading a counter" — but not free: the Tracker
// charges the configured read cost separately.
type Meter interface {
	// ReadPulses returns the cumulative pulse count, each pulse representing
	// a fixed energy quantum (8.33 uJ at 3 V on HydroWatch).
	ReadPulses() uint32
}

// CostAccount receives the CPU cycles consumed by Quanto's own bookkeeping
// so the profiler's overhead shows up in the profile, like the paper's
// self-accounting of logging time.
type CostAccount interface {
	// ChargeCycles adds n busy cycles to the CPU at the current instant.
	ChargeCycles(n uint32)
}

// Sink consumes log entries as they are produced. Record reports whether the
// entry was kept; a full fixed buffer returns false and the Tracker counts
// the drop.
type Sink interface {
	Record(Entry) bool
}

// LogCosts is the synchronous per-entry cost model from Table 4 of the
// paper, in CPU cycles at 1 MHz.
type LogCosts struct {
	Call       uint32 // call overhead
	ReadTimer  uint32 // reading the time stamp
	ReadICount uint32 // reading the iCount value
	Other      uint32 // struct fill, buffer management
}

// DefaultLogCosts reproduces Table 4: 41 + 19 + 24 + 18 = 102 cycles.
func DefaultLogCosts() LogCosts {
	return LogCosts{Call: 41, ReadTimer: 19, ReadICount: 24, Other: 18}
}

// Total returns the full synchronous cost of logging one sample.
func (c LogCosts) Total() uint32 { return c.Call + c.ReadTimer + c.ReadICount + c.Other }

// Config assembles a Tracker.
type Config struct {
	Node  NodeID
	Clock Clock
	Meter Meter
	Cost  CostAccount // optional; nil disables cost accounting
	Sink  Sink
	Costs LogCosts // zero value means DefaultLogCosts
}

// Tracker is the per-node glue component between instrumented device
// drivers, the OS, and the log. Every real power-state or activity change
// flows through it; it stamps the event with time and cumulative energy and
// hands it to the sink.
type Tracker struct {
	node  NodeID
	clock Clock
	meter Meter
	cost  CostAccount
	sink  Sink
	costs LogCosts

	enabled bool

	// Statistics, used by the Table 4 experiment.
	entries     uint64
	dropped     uint64
	costCycles  uint64
	psListeners []PowerStateListener

	// psvs and sads are the blocks NewPowerStateVar and
	// NewSingleActivityDevice carve a node's devices from, so the handful
	// every node registers cost the garbage collector a few objects, not
	// one each.
	psvs []PowerStateVar
	sads []SingleActivityDevice
}

// carve returns the next free slot of *block, zeroed, starting a new block
// of n slots when the current one is full. Earlier slots keep their block
// alive, so a carved value never moves.
func carve[T any](block *[]T, n int) *T {
	if len(*block) == cap(*block) {
		*block = make([]T, 0, n)
	}
	*block = (*block)[:len(*block)+1]
	return &(*block)[len(*block)-1]
}

// NewTracker builds a tracker from cfg. Clock, Meter and Sink are required.
func NewTracker(cfg Config) *Tracker {
	if cfg.Clock == nil || cfg.Meter == nil || cfg.Sink == nil {
		panic("core: Tracker requires Clock, Meter and Sink")
	}
	costs := cfg.Costs
	if costs == (LogCosts{}) {
		costs = DefaultLogCosts()
	}
	return &Tracker{
		node:    cfg.Node,
		clock:   cfg.Clock,
		meter:   cfg.Meter,
		cost:    cfg.Cost,
		sink:    cfg.Sink,
		costs:   costs,
		enabled: true,
	}
}

// Node returns the node this tracker instruments.
func (t *Tracker) Node() NodeID { return t.node }

// IdleLabel returns this node's idle activity label.
func (t *Tracker) IdleLabel() Label { return MkLabel(t.node, ActIdle) }

// SetEnabled switches logging on or off. Device state is still tracked while
// disabled so re-enabling resumes with correct current values; only the log
// stream (and its cost) stops.
func (t *Tracker) SetEnabled(v bool) { t.enabled = v }

// Entries returns how many entries were recorded.
func (t *Tracker) Entries() uint64 { return t.entries }

// Dropped returns how many entries the sink rejected (buffer full).
func (t *Tracker) Dropped() uint64 { return t.dropped }

// CostCycles returns the cumulative CPU cycles charged for synchronous
// logging, i.e. entries * 102 with the default cost model.
func (t *Tracker) CostCycles() uint64 { return t.costCycles }

// Log records one event of the given type. It is the single funnel used by
// PowerStateVar and the activity devices.
func (t *Tracker) Log(typ EntryType, res ResourceID, val uint16) {
	if !t.enabled {
		return
	}
	e := Entry{
		Type: typ,
		Res:  res,
		Time: t.clock.NowMicros(),
		IC:   t.meter.ReadPulses(),
		Val:  val,
	}
	if t.sink.Record(e) {
		t.entries++
	} else {
		t.dropped++
	}
	total := t.costs.Total()
	t.costCycles += uint64(total)
	if t.cost != nil {
		t.cost.ChargeCycles(total)
	}
}

// Marker logs a free-form annotation.
func (t *Tracker) Marker(res ResourceID, val uint16) {
	t.Log(EntryMarker, res, val)
}

// ListenPowerStates registers l to observe every real power-state change on
// this node (the PowerStateTrack interface of Figure 3).
func (t *Tracker) ListenPowerStates(l PowerStateListener) {
	t.psListeners = append(t.psListeners, l)
}

func (t *Tracker) notifyPowerState(res ResourceID, old, now PowerState) {
	for _, l := range t.psListeners {
		l.PowerStateChanged(res, old, now)
	}
}

// PowerStateListener observes real power-state changes in real time
// (PowerStateTrack in the paper). The board model uses it to update the
// aggregate current draw, which in turn drives the energy meter.
type PowerStateListener interface {
	PowerStateChanged(res ResourceID, old, now PowerState)
}
