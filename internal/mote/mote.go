// Package mote assembles complete simulated HydroWatch nodes: the board
// (energy sinks + supply), the iCount meter, the TinyOS-like kernel, and the
// instrumented device drivers, all wired to a Quanto tracker. A World groups
// nodes around one simulator and one shared RF medium, which is how the
// multi-node experiments (Bounce) run. The oscilloscope bench is opt-in
// (World.AttachScope): only the exhibits that read a waveform pay for one.
package mote

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/icount"
	"repro/internal/kernel"
	"repro/internal/leds"
	"repro/internal/medium"
	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/scope"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// Options configures one node. Declarative runs build these from a
// scenario.Spec (internal/scenario), which exposes the same knobs —
// voltage, kernel options, logging mode — as sweepable JSON fields. The
// physical draw table is not an option: every board reads the platform's
// one shared power.Calibrated grid. (A test that needs another table builds
// a power.Board directly.)
type Options struct {
	// Volts is the supply voltage (3.0 V by default; the paper's LPL mote
	// ran from a 3.35 V regulator).
	Volts units.Volts
	// Kernel carries the OS options (DCO calibration).
	Kernel kernel.Options
	// Radio enables the transceiver and Active Message stack.
	Radio bool
	// RadioConfig configures the transceiver when Radio is set.
	RadioConfig radio.Config
	// ContinuousDrain selects the paper's second logging mode: entries
	// buffer in the mote's 800-entry RAM buffer and a low-priority task
	// streams them out under a self-accounting "Quanto" activity
	// (Section 4.4). Without it every entry goes straight to Node.Log.
	ContinuousDrain bool
	// BatteryUAH, when positive, powers the node from a finite battery of
	// that many microamp-hours instead of an infinite supply. The node
	// browns out at the exact instant the integrated net charge crosses
	// zero: a death marker is logged, the radio falls off the medium, the
	// board stops drawing, and the kernel is killed.
	BatteryUAH float64
	// Harvester feeds income into the battery (nil: pure battery). Ignored
	// unless BatteryUAH is set.
	Harvester power.Harvester
	// HaltWorldOnDeath stops the entire simulation when THIS node's battery
	// depletes (the "halt-world" death policy). The default policy lets the
	// world keep running so surviving nodes' behavior after the death —
	// retries, lost connectivity, cascades — stays observable.
	HaltWorldOnDeath bool
}

// DefaultOptions returns the standard single-node configuration.
func DefaultOptions() Options {
	return Options{Volts: 3.0}
}

// Node is one fully assembled mote.
type Node struct {
	ID    core.NodeID
	K     *kernel.Kernel
	Trk   *core.Tracker
	Board *power.Board
	Meter *icount.Meter
	// Scope is the oscilloscope bench recording the board's exact current
	// waveform. It is nil unless World.AttachScope attached one: only the
	// calibration and Blink exhibits read a waveform, and every other node
	// would only grow a slice of steps nobody looks at.
	Scope *scope.Scope
	Log   *core.Collector
	Drain *core.DrainSink // nil unless ContinuousDrain was set

	LEDs    *leds.LEDs
	Sensor  *sensor.SHT11
	Flash   *flash.Flash
	Radio   *radio.Radio   // nil unless Options.Radio
	AM      *am.AM         // nil unless Options.Radio
	Battery *power.Battery // nil unless Options.BatteryUAH

	Volts units.Volts

	dead   bool
	diedAt units.Ticks
}

// Alive reports whether the node still has supply power.
func (n *Node) Alive() bool { return !n.dead }

// DiedAt returns the battery-depletion instant and whether the node died.
func (n *Node) DiedAt() (units.Ticks, bool) { return n.diedAt, n.dead }

// DeathMarker is the marker value logged (on power.ResBaseline) as a node's
// final entry when its battery depletes, so offline analysis can close the
// last interval at the exact death instant and tell a dead node's truncated
// log from a completed run's (which ends in EndMarker).
const DeathMarker uint16 = 0xDEAD

// EndMarker is the marker value StampEnd logs (on power.ResBaseline) as a
// surviving node's final entry.
const EndMarker uint16 = 0xFFFF

// Death records one battery depletion.
type Death struct {
	Node core.NodeID
	At   units.Ticks
}

// World is a set of nodes sharing a simulator, an RF medium, and a merged
// name dictionary.
type World struct {
	Sim    *sim.Simulator
	Medium *medium.Medium
	Dict   *core.Dictionary
	Nodes  []*Node

	// Deaths lists battery depletions in the order they occurred.
	Deaths []Death
	// deathSubs are the depletion observers (SubscribeDeath), called in
	// subscription order. The routing layer uses this to turn battery
	// deaths into topology events.
	deathSubs []func(n *Node, at units.Ticks)

	seed uint64
	byID map[core.NodeID]*Node
}

// NewWorld creates an empty world. The seed drives every stochastic element
// (backoff, interference, measurement ripple) deterministically.
func NewWorld(seed uint64) *World {
	w := new(World)
	w.Reset(seed)
	return w
}

// Reset empties the world for a new run under seed, so that nothing built
// into it before — nodes, names, pending events, deaths, death subscribers,
// a halt — reaches the run: it runs as it would in NewWorld(seed). The
// simulator and the dictionary are reset in place and keep the storage
// they have grown; the medium is a new one. Reset on the zero World makes
// them, as NewWorld does.
func (w *World) Reset(seed uint64) {
	if w.Sim == nil {
		w.Sim, w.Dict, w.byID = sim.New(), core.NewDictionary(), make(map[core.NodeID]*Node)
	} else {
		w.Sim.Reset()
		w.Dict.Reset()
		clear(w.byID)
	}
	w.Medium = medium.New(w.Sim)
	w.Nodes, w.Deaths, w.deathSubs = nil, nil, nil
	w.seed = seed
	// Resource names for reports. Every node runs the same platform, so the
	// world registers them once rather than once per node.
	for res, name := range power.ResourceNames() {
		w.Dict.NameResource(core.ResourceID(res), name)
	}
}

// AddNode assembles a node with the given id and options and registers it in
// the world.
func (w *World) AddNode(id core.NodeID, opts Options) *Node {
	if opts.Volts == 0 {
		opts.Volts = 3.0
	}

	k := kernel.New(w.Sim, id, w.Dict, opts.Kernel, w.seed)

	meter := icount.New(opts.Volts, k.NowTicks)
	board := power.NewBoard(opts.Volts, power.Calibrated(), k.NowTicks)

	log := core.NewCollector()
	var sink core.Sink = log
	var drain *core.DrainSink
	if opts.ContinuousDrain {
		drain = core.NewDrainSink(log, k, k.DefineActivity("Quanto"))
		sink = drain
	}

	trk := core.NewTracker(core.Config{
		Node:  id,
		Clock: k,
		Meter: meter,
		Cost:  k,
		Sink:  sink,
	})
	trk.ListenPowerStates(board)

	// Physical wiring: the board publishes aggregate current to the meter.
	board.Listen(meter)

	// The always-on board draw and the CPU.
	board.AddSink(power.ResBaseline, power.StateOff)
	k.Attach(trk)
	board.AddSink(power.ResCPU, kernel.SleepState)

	n := &Node{
		ID:    id,
		K:     k,
		Trk:   trk,
		Board: board,
		Meter: meter,
		Log:   log,
		Drain: drain,
		Volts: opts.Volts,
	}

	n.LEDs = leds.New(k, board)
	n.Sensor = sensor.New(k, board)
	n.Flash = flash.New(k, board)

	if opts.Radio {
		n.Radio = radio.New(k, w.Medium, board, opts.RadioConfig)
		n.AM = am.New(k, n.Radio)
	}

	if opts.BatteryUAH > 0 {
		// The battery listens last, after every sink is registered, so its
		// first integration segment starts from the complete assembly-time
		// draw. All assembly happens at t=0, so no charge is missed.
		bat := power.NewBattery(opts.BatteryUAH, opts.Harvester, w.Sim)
		board.Listen(bat)
		n.Battery = bat
		haltWorld := opts.HaltWorldOnDeath
		bat.OnDepleted(func(at units.Ticks) { w.killNode(n, at, haltWorld) })
	}

	w.Nodes = append(w.Nodes, n)
	w.byID[id] = n
	return n
}

// scopeRipple is the oscilloscope's relative sampling noise (0.4% RMS).
const scopeRipple = 0.004

// AttachScope wires an oscilloscope bench to n's board and returns it; a
// second call returns the bench already attached. Attach before Run: all
// assembly happens at t=0, where the bench keeps only the final draw of
// each instant, and Board.Listen replays exactly that draw — so a bench
// attached at any point before the run records the same waveform as one
// wired in during assembly. The noise seed depends only on the world seed
// and the node id.
func (w *World) AttachScope(n *Node) *scope.Scope {
	if n.Scope == nil {
		n.Scope = scope.New(scopeRipple, w.seed^(uint64(n.ID)<<40)^0x5C09E)
		n.Board.Listen(n.Scope)
	}
	return n.Scope
}

// killNode is the depletion event handler: it runs as its own simulator event
// (never inside a device handler) at the exact crossing instant. The order
// matters — the death marker must be the node's last log entry, stamped while
// the meter still integrates, and everything after it must be silent.
func (w *World) killNode(n *Node, at units.Ticks, haltWorld bool) {
	if n.dead {
		return
	}
	n.dead = true
	n.diedAt = at
	// Final entry: exact time and cumulative energy at death, so offline
	// analysis closes the last interval precisely.
	n.Trk.Marker(power.ResBaseline, DeathMarker)
	if n.Drain != nil {
		// Continuous-drain mode: hand the harness the entries still buffered
		// in RAM. (A real mote would lose them with the supply; the
		// simulation keeps analysis exact instead.)
		n.Drain.Flush()
	}
	n.Trk.SetEnabled(false)
	if n.Radio != nil {
		// Off the air: no more frame deliveries, no more forwarding. This is
		// what makes downstream nodes lose connectivity when a relay dies.
		w.Medium.Unregister(n.Radio)
		n.Radio.ForceOff()
	}
	n.Board.Shutdown()
	n.K.Kill()
	w.Deaths = append(w.Deaths, Death{Node: n.ID, At: at})
	for _, sub := range w.deathSubs {
		sub(n, at)
	}
	if haltWorld {
		w.Sim.Halt()
	}
}

// ConfigureSpatial switches the world's medium from the flat broadcast
// model to the spatial link layer: positions[i] is assigned to w.Nodes[i]
// (creation order, which is how apps index placements), and delivery from
// then on is gated on range, per-link PRR, and collisions. Call it after
// every node has been added; the default — never calling it — leaves the
// broadcast medium byte-identical to its historical behavior.
func (w *World) ConfigureSpatial(cfg medium.SpatialConfig, positions []medium.Position) error {
	if len(positions) != len(w.Nodes) {
		return fmt.Errorf("mote: %d positions for %d nodes", len(positions), len(w.Nodes))
	}
	w.Medium.EnableSpatial(cfg)
	for i, n := range w.Nodes {
		w.Medium.SetPosition(n.ID, positions[i])
	}
	return nil
}

// StampEnd writes a final marker entry on every node so offline analysis can
// close the last interval with an exact time and energy reading, and flushes
// any continuous-drain buffers so the collector holds the complete stream.
// Dead nodes are skipped: their death marker is already their final entry.
// Call it after Run.
func (w *World) StampEnd() {
	for _, n := range w.Nodes {
		if n.dead {
			continue
		}
		n.Trk.Marker(power.ResBaseline, EndMarker)
		if n.Drain != nil {
			n.Drain.Flush()
		}
	}
}

// SubscribeDeath adds a depletion observer. Subscribers run in subscription
// order inside the death event itself — the node is already off the air and
// killed.
func (w *World) SubscribeDeath(fn func(n *Node, at units.Ticks)) {
	w.deathSubs = append(w.deathSubs, fn)
}

// Node returns the node with the given id, or nil.
func (w *World) Node(id core.NodeID) *Node { return w.byID[id] }

// Run advances the simulation until the given time and returns the number of
// events dispatched.
func (w *World) Run(until units.Ticks) int { return w.Sim.Run(until) }

// NodeStreams exposes every node's collected log as a merge input, without
// copying the entries.
func (w *World) NodeStreams() []trace.Stream {
	out := make([]trace.Stream, 0, len(w.Nodes))
	for _, n := range w.Nodes {
		out = append(out, trace.Stream{Node: n.ID, Source: trace.NewSliceSource(n.Log.Entries)})
	}
	return out
}

// Merged k-way merges every node's log into one time-ordered network stream.
func (w *World) Merged() (*trace.Merger, error) {
	return trace.NewMerger(w.NodeStreams())
}

// NewSingleNode is the quickstart helper: one node, id 1, default options,
// no radio.
func NewSingleNode(seed uint64) (*World, *Node) {
	w := NewWorld(seed)
	n := w.AddNode(1, DefaultOptions())
	return w, n
}
