// Package scenario makes whole experiments declarative: a Spec describes one
// simulated run (which app, how many nodes, which radio/kernel/logging knobs,
// how long, which seed), a Matrix sweeps any Spec field over a list of values
// and replicates each configuration across seeds, and a Runner executes the
// expanded matrix concurrently over a worker pool — one isolated
// sim.Simulator/mote.World per run — feeding every node's log through the
// streaming NetworkAnalyzer into a compact Result.
//
// Determinism is the package's core contract: per-run seeds are derived by
// hashing the base seed with the run's canonical configuration (not its
// position in the matrix), so results are byte-identical regardless of worker
// count, completion order, or how the sweep lists were ordered when the
// matrix was written.
//
// Apps register constructors into the package registry (internal/apps does
// this for the paper's workloads; out-of-tree binaries can register their
// own), which is how `quanto-trace sweep` can run any workload from a JSON
// file without compiling new code.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/medium"
	"repro/internal/mote"
	"repro/internal/net"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/units"
)

// Spec declares one run. The zero value of every optional field means "the
// app's default" (matching the paper's setup for that workload), so a minimal
// spec is just {"app": "blink", "duration_us": 48000000}. All durations are
// simulated microseconds, which is also the simulator's tick unit; currents
// are microamps and battery capacities microamp-hours.
//
// Each field's doc states which registered apps honor it. Fields an app does
// not honor are accepted but inert there — sweeping them produces replicas
// of the same behavior under different ConfigKeys, so prefer sweeping knobs
// the swept app actually reads.
type Spec struct {
	// Name is a cosmetic tag carried into results; it does not affect seed
	// derivation or grouping. Honored by: all apps.
	Name string `json:"name,omitempty"`
	// App selects the registered constructor ("blink", "bounce", "lpl",
	// "relay", "sensesend", "timerbug", "dma", ...). See Apps(). Required.
	App string `json:"app"`
	// Seed drives every stochastic element of the run (CSMA backoff, WiFi
	// interference, measurement ripple). In a Matrix this is the base seed
	// that per-run seeds are derived from. Default 0 (a valid, fixed
	// stream). Honored by: all apps.
	Seed uint64 `json:"seed,omitempty"`
	// DurationUS is the simulated run length in microseconds. Required
	// (> 0); there is no default.
	DurationUS int64 `json:"duration_us"`
	// Nodes sizes the topology for apps with a variable node count.
	// 0 selects the app default. Honored by: relay (hop count, >= 2,
	// default 3); other apps have fixed topologies.
	Nodes int `json:"nodes,omitempty"`
	// Channel is the 802.15.4 channel, 11..26 (17 overlaps 802.11b
	// channel 6; 26 is clear). 0 selects 26, the channel dma always uses.
	// Honored by: bounce, lpl, relay, sensesend.
	Channel int `json:"channel,omitempty"`
	// Volts overrides the supply voltage in volts. Default 3.0 V (lpl:
	// 3.35 V, the paper's regulator). Honored by: all apps.
	Volts float64 `json:"volts,omitempty"`

	// CalibrateDCO enables the 16 Hz digital-oscillator calibration
	// interrupt, the TinyOS default the TimerBug case study exposes.
	// Default off. Honored by: all apps (timerbug is its showcase).
	CalibrateDCO bool `json:"calibrate_dco,omitempty"`
	// UseDMA selects DMA-based CPU-radio bus transfers instead of the
	// interrupt-per-2-bytes default (the Figure 16 comparison). Default
	// off. Honored by: bounce, dma.
	UseDMA bool `json:"use_dma,omitempty"`
	// RAMBufferEntries routes the log through a fixed mote-style RAM buffer
	// of that many entries, so buffer-full behaviour can be observed.
	// Default 0 (no RAM buffer). Honored by: all apps.
	RAMBufferEntries int `json:"ram_buffer_entries,omitempty"`
	// ContinuousDrain selects the paper's streaming logging mode: entries
	// buffer in RAM and a low-priority task drains them under a
	// self-accounting "Quanto" activity (Section 4.4). Mutually exclusive
	// with RAMBufferEntries; default off. Honored by: all apps.
	ContinuousDrain bool `json:"continuous_drain,omitempty"`

	// PeriodUS is the app's generation/sampling period in microseconds.
	// 0 selects the app default. Honored by: relay (packet generation,
	// default 1 s), sensesend (sampling, default 5 s).
	PeriodUS int64 `json:"period_us,omitempty"`
	// Origins is how many of the relay line's nodes generate traffic (nodes
	// 1..Origins, each sending toward the line's end). 0 selects 1, the
	// classic single-origin flood; larger values spread offered load across
	// the topology. Origins start their periods at staggered phases; the
	// stagger stays because it defines simulated output. Honored by: relay.
	Origins int `json:"origins,omitempty"`
	// HoldTimeUS is how long a Bounce node keeps a packet before sending it
	// back, in microseconds. 0 selects the paper's 220 ms. Honored by:
	// bounce.
	HoldTimeUS int64 `json:"hold_time_us,omitempty"`
	// PayloadBytes sizes the DMA comparison's packet payload. 0 selects 30.
	// Honored by: dma.
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// StartAtUS is when the DMA comparison fires its single send, in
	// microseconds. 0 selects 100 ms. Honored by: dma.
	StartAtUS int64 `json:"start_at_us,omitempty"`

	// CheckPeriodUS is the LPL sleep interval between channel checks, in
	// microseconds. 0 selects the paper's 500 ms. Honored by: lpl.
	CheckPeriodUS int64 `json:"check_period_us,omitempty"`
	// ReceiveCheckUS is how long the LPL receiver stays on during a clean
	// check, in microseconds. 0 selects 9.4 ms. Honored by: lpl.
	ReceiveCheckUS int64 `json:"receive_check_us,omitempty"`
	// FalsePositiveHoldUS is how long the LPL receiver is held on after
	// detecting energy, in microseconds. 0 selects the paper's 100 ms.
	// Honored by: lpl.
	FalsePositiveHoldUS int64 `json:"false_positive_hold_us,omitempty"`
	// NoWiFi disables the interfering 802.11b access point that the LPL
	// study runs against by default. Honored by: lpl.
	NoWiFi bool `json:"no_wifi,omitempty"`
	// WiFiBurstUS / WiFiGapUS shape the interferer's traffic, in
	// microseconds (defaults 5 ms / 23 ms: ~17.9% channel occupancy,
	// matching the paper's 17.8% false-positive rate). Honored by: lpl.
	WiFiBurstUS int64 `json:"wifi_burst_us,omitempty"`
	WiFiGapUS   int64 `json:"wifi_gap_us,omitempty"`

	// Placement selects the spatial propagation layer and how nodes are
	// laid out on the plane: "line" (evenly spaced), "grid" (near-square,
	// row-major), or "rgg" (uniform random over a square, drawn from the
	// run seed — the random-geometric-graph placement). Empty (the
	// default) keeps the legacy broadcast medium: every node hears every
	// node, byte-identical to all pre-spatial runs. With a placement set,
	// delivery is gated on range and per-link PRR (log-distance path
	// loss), overlapping co-channel frames collide unless one captures,
	// and results carry per-link PRR and collision counts. Honored by:
	// bounce, dma, relay, sensesend (the radio topologies; lpl's
	// interferer has no position).
	Placement string `json:"placement,omitempty"`
	// AreaM sizes the deployment in meters: the side of the square for
	// "grid"/"rgg", the total line length for "line". 0 selects a default
	// derived from tx_range_m (line/grid: 0.5 range spacing between
	// neighbors; rgg: a side giving ~4π expected in-range neighbors).
	// Requires placement. Honored by: same apps as placement.
	AreaM float64 `json:"area_m,omitempty"`
	// PathLossExp is the log-distance path-loss exponent (free space 2,
	// indoor ~3, dense obstruction 4+). 0 selects 3.0; valid 1..8.
	// Requires placement. Honored by: same apps as placement.
	PathLossExp float64 `json:"path_loss_exp,omitempty"`
	// TxRangeM is the hard delivery cutoff in meters; it also bounds
	// per-transmit work (the neighbor index uses it as cell size). 0
	// selects 50 m. Requires placement. Honored by: same apps as
	// placement.
	TxRangeM float64 `json:"tx_range_m,omitempty"`
	// CaptureDB is the margin (dB) at which the stronger of two
	// overlapping co-channel frames is still decoded instead of both
	// corrupting. 0 selects 3 dB. Requires placement. Honored by: same
	// apps as placement.
	CaptureDB float64 `json:"capture_db,omitempty"`

	// Routing selects a routed forwarding plane instead of the app's fixed
	// next-hop wiring: "ctp" grows a collection tree (internal/net) rooted
	// at the sink — ETX-style link estimation from beacon losses, gradient-
	// checked parent selection, energy-aware rerouting around battery
	// deaths. Empty (the default) keeps the app's classic forwarding,
	// byte-identical to all pre-routing runs. Requires a placement (a
	// broadcast medium has no topology for a tree to track). Honored by:
	// relay.
	Routing string `json:"routing,omitempty"`
	// BeaconPeriodMS spaces the routing layer's beacons in milliseconds.
	// 0 selects 1000 ms. Requires routing. Honored by: relay.
	BeaconPeriodMS int64 `json:"beacon_period_ms,omitempty"`
	// Mobility puts every node in motion: "waypoint" (random waypoint —
	// walk to a uniform target, pick another) or "drift" (one random
	// heading forever, reflecting off the area walls). Positions step on a
	// fixed epoch and the medium rebuilds its neighbor index once per
	// epoch, so links appear and vanish as nodes roam. Paths draw only from
	// per-node streams derived from the run seed, so mobile runs stay
	// byte-identical across -workers. Requires a placement.
	// Honored by: bounce, dma, relay, sensesend (the spatial apps).
	Mobility string `json:"mobility,omitempty"`
	// SpeedMPS is every mover's speed in meters per second. 0 selects 1.3
	// (pedestrian). Requires mobility. Honored by: the same apps as
	// Mobility.
	SpeedMPS float64 `json:"speed_mps,omitempty"`

	// BatteryUAH gives every node a finite battery of that many
	// microamp-hours (default 0: infinite supply). A node halts at the
	// exact instant its integrated net charge crosses zero; results then
	// carry per-node lifetimes and energy margins. Honored by: all apps.
	BatteryUAH float64 `json:"battery_uah,omitempty"`
	// BatteryNodeUAH overrides BatteryUAH per node; keys are decimal node
	// ids ("1", "2", ...) as each app assigns them: relay 1..Nodes, dma
	// 1-2, sensesend 1 (base) and 2 (sensor), bounce the paper's ids 1
	// and 4, timerbug the figure's id 32. An explicit 0 gives that node an
	// infinite supply. This is how a relay chain starves one hop to study
	// cascades. Honored by: all apps.
	BatteryNodeUAH map[string]float64 `json:"battery_node_uah,omitempty"`
	// Harvest attaches an energy-income profile to every finite battery.
	// Requires BatteryUAH or BatteryNodeUAH. Honored by: all apps.
	Harvest *HarvestSpec `json:"harvest,omitempty"`
	// DeathPolicy selects what a depletion does to the rest of the run:
	// "halt-node" (the default) halts only the depleted node and lets the
	// network keep running; "halt-world" stops the whole simulation at the
	// first death. Requires a finite battery. Honored by: all apps.
	DeathPolicy string `json:"death_policy,omitempty"`

	// Traffic selects each sender's schedule from a synthetic offered-load
	// shape: constant RPS, an invitro-style ramp (start/step/target RPS
	// over fixed slots), bursts, a diurnal cycle, a heavy-tailed ON/OFF
	// source, or the replay of a recorded schedule (`quanto-trace
	// record`). Shaped senders draw randomness only from private per-node
	// streams derived from the run seed, and generated schedules are
	// phase-staggered onto disjoint tick residues so no two senders share
	// a send tick. A shaped run records its realized send schedule
	// (Instance.Traffic), which `quanto-trace record` writes out. Sweepable
	// like any other field. Default nil: the app's default schedule (relay
	// and sensesend every period_us, bounce one injection per node).
	// Honored by: relay (each origin's generation), bounce (each node's
	// packet injection), sensesend (the sampling schedule).
	Traffic *traffic.Spec `json:"traffic,omitempty"`
}

// Death policies for Spec.DeathPolicy.
const (
	DeathPolicyHaltNode  = "halt-node"
	DeathPolicyHaltWorld = "halt-world"
)

// Placements for Spec.Placement.
const (
	PlacementLine = "line"
	PlacementGrid = "grid"
	PlacementRGG  = "rgg"
)

// Routing planes for Spec.Routing.
const (
	RoutingCTP = "ctp"
)

// Mobility models for Spec.Mobility.
const (
	MobilityWaypoint = "waypoint"
	MobilityDrift    = "drift"
)

// DefaultSpeedMPS is the mover speed when the spec leaves SpeedMPS zero:
// pedestrian pace.
const DefaultSpeedMPS = 1.3

// The spatial layer's RNG streams derive from the run seed under the
// domain tags "scenario/spatial" (channel-loss draws) and
// "scenario/placement" (the rgg layout): replicas under derived seeds get
// fresh placements and fresh loss draws, but neither shares a stream with
// the run's other consumers (backoff, interference, ripple). quantovet's
// rngdomain analyzer keeps the tags distinct across every call site.

// effectiveTxRange returns the spec's delivery cutoff with the default
// applied, for deriving placement extents.
func (s *Spec) effectiveTxRange() float64 {
	if s.TxRangeM > 0 {
		return s.TxRangeM
	}
	return medium.DefaultTxRangeM
}

// effectiveArea returns the deployment extent in meters for n nodes, with
// the same per-placement defaults Positions applies. Mobility models use it
// as the square the movers roam (and reflect) within.
func (s *Spec) effectiveArea(n int) float64 {
	if s.AreaM > 0 {
		return s.AreaM
	}
	r := s.effectiveTxRange()
	switch s.Placement {
	case PlacementLine:
		return 0.5 * r * float64(n-1)
	case PlacementGrid:
		cols := int(math.Ceil(math.Sqrt(float64(n))))
		return 0.5 * r * float64(cols-1)
	case PlacementRGG:
		// Side giving ~4π (≈12.6) expected in-range neighbors per
		// node: n·πr² / side² = 4π at side = r·√n / 2.
		return r * math.Sqrt(float64(n)) / 2
	}
	return 0
}

// Positions computes the spec's node placement for n nodes (indexed in node
// creation order). It is a pure function of (spec, n): the rgg draw comes
// from the run seed, so a replicated sweep samples fresh layouts while any
// single run stays exactly reproducible.
func (s *Spec) Positions(n int) ([]medium.Position, error) {
	area := s.effectiveArea(n)
	switch s.Placement {
	case PlacementLine:
		return medium.PlaceLine(n, area), nil
	case PlacementGrid:
		return medium.PlaceGrid(n, area), nil
	case PlacementRGG:
		seed := sim.DeriveSeed(s.Seed, "scenario/placement", 0)
		return medium.PlaceRandomGeometric(n, area, seed), nil
	default:
		return nil, fmt.Errorf("scenario: unknown placement %q (want %q, %q or %q)",
			s.Placement, PlacementLine, PlacementGrid, PlacementRGG)
	}
}

// ApplySpatial configures the world's medium per the spec's placement
// fields. App constructors call it once, after every node has been added;
// with no placement configured it is a no-op and the world keeps the legacy
// broadcast medium.
func (s *Spec) ApplySpatial(w *mote.World) error {
	if s.Placement == "" {
		return nil
	}
	pos, err := s.Positions(len(w.Nodes))
	if err != nil {
		return err
	}
	if err := w.ConfigureSpatial(medium.SpatialConfig{
		PathLossExp: s.PathLossExp,
		TxRangeM:    s.TxRangeM,
		CaptureDB:   s.CaptureDB,
		Seed:        sim.DeriveSeed(s.Seed, "scenario/spatial", 0),
	}, pos); err != nil {
		return err
	}
	return s.applyMobility(w, pos)
}

// applyMobility attaches a mover to every node per the spec's mobility
// fields: the placement supplies each node's starting position, and every
// path is a pure function of (seed, node id), so mobile runs replay
// byte-identically under any worker count.
func (s *Spec) applyMobility(w *mote.World, pos []medium.Position) error {
	if s.Mobility == "" {
		return nil
	}
	w.Medium.EnableMobility(net.MobilityStep)
	speed := s.SpeedMPS
	if speed == 0 {
		speed = DefaultSpeedMPS
	}
	area := s.effectiveArea(len(w.Nodes))
	for i, n := range w.Nodes {
		switch s.Mobility {
		case MobilityWaypoint:
			w.Medium.SetMover(n.ID, net.NewWaypoint(s.Seed, n.ID, pos[i], area, speed))
		case MobilityDrift:
			w.Medium.SetMover(n.ID, net.NewDrift(s.Seed, n.ID, pos[i], area, speed))
		default:
			return fmt.Errorf("scenario: unknown mobility %q (want %q or %q)",
				s.Mobility, MobilityWaypoint, MobilityDrift)
		}
	}
	return nil
}

// HarvestSpec is the declarative form of a power.Harvester. All currents are
// microamps, all durations simulated microseconds.
type HarvestSpec struct {
	// Profile selects the shape: "constant" (UA forever) or "periodic" (UA
	// during the first OnUS of every PeriodUS, 0 otherwise).
	Profile string `json:"profile"`
	// UA is the harvested current while the source is producing.
	UA float64 `json:"ua"`
	// PeriodUS / OnUS / PhaseUS shape the periodic profile; ignored for
	// "constant".
	PeriodUS int64 `json:"period_us,omitempty"`
	OnUS     int64 `json:"on_us,omitempty"`
	PhaseUS  int64 `json:"phase_us,omitempty"`
}

// Harvester builds the power-layer source this spec describes.
func (h *HarvestSpec) Harvester() (power.Harvester, error) {
	switch h.Profile {
	case "constant":
		if h.UA < 0 {
			return nil, fmt.Errorf("scenario: harvest ua must be >= 0, got %v", h.UA)
		}
		return power.ConstantHarvester(h.UA), nil
	case "periodic":
		if h.UA < 0 || h.PeriodUS <= 0 || h.OnUS <= 0 {
			return nil, fmt.Errorf("scenario: periodic harvest needs ua >= 0, period_us > 0 and on_us > 0")
		}
		return power.PeriodicHarvester{
			UA:     units.MicroAmps(h.UA),
			Period: units.Ticks(h.PeriodUS),
			On:     units.Ticks(h.OnUS),
			Phase:  units.Ticks(h.PhaseUS),
		}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown harvest profile %q (want constant or periodic)", h.Profile)
	}
}

// hasBattery reports whether any node gets a finite battery.
func (s *Spec) hasBattery() bool {
	if s.BatteryUAH > 0 {
		return true
	}
	//quanto:ordered existence test ("any value positive") is order-independent
	for _, v := range s.BatteryNodeUAH {
		if v > 0 {
			return true
		}
	}
	return false
}

// Duration returns the run length as simulator ticks.
func (s *Spec) Duration() units.Ticks { return units.Ticks(s.DurationUS) }

// NodeOptions returns the mote options of the node with the given id: the
// spec's voltage, DCO calibration, logging mode and energy budget, where
// BatteryNodeUAH overrides BatteryUAH for that id. Apps set the radio and
// any app-specific voltage on top.
func (s *Spec) NodeOptions(id core.NodeID) mote.Options {
	o := mote.DefaultOptions()
	if s.Volts > 0 {
		o.Volts = units.Volts(s.Volts)
	}
	o.Kernel.CalibrateDCO = s.CalibrateDCO
	o.RAMBufferEntries = s.RAMBufferEntries
	o.ContinuousDrain = s.ContinuousDrain
	capUAH := s.BatteryUAH
	if v, ok := s.BatteryNodeUAH[strconv.Itoa(int(id))]; ok {
		capUAH = v
	}
	if capUAH <= 0 {
		return o
	}
	o.BatteryUAH = capUAH
	if s.Harvest != nil {
		// Build runs Validate before any app asks for options, so an
		// invalid harvest spec has been rejected by then; this guard only
		// shields direct callers.
		if h, err := s.Harvest.Harvester(); err == nil {
			o.Harvester = h
		}
	}
	o.HaltWorldOnDeath = s.DeathPolicy == DeathPolicyHaltWorld
	return o
}

// Validate checks the fields every app needs; app-specific constraints live
// in the app constructors and registered builders.
func (s *Spec) Validate() error {
	if s.App == "" {
		return fmt.Errorf("scenario: spec has no app")
	}
	if s.DurationUS <= 0 {
		return fmt.Errorf("scenario: spec %q has no positive duration_us", s.App)
	}
	if s.BatteryUAH < 0 {
		return fmt.Errorf("scenario: battery_uah must be >= 0, got %v", s.BatteryUAH)
	}
	// Checked in sorted key order so a spec with several bad entries always
	// reports the same one (map iteration order would pick one at random).
	for _, id := range slices.Sorted(maps.Keys(s.BatteryNodeUAH)) {
		if _, err := strconv.Atoi(id); err != nil {
			return fmt.Errorf("scenario: battery_node_uah key %q is not a node id", id)
		}
		if v := s.BatteryNodeUAH[id]; v < 0 {
			return fmt.Errorf("scenario: battery_node_uah[%s] must be >= 0, got %v", id, v)
		}
	}
	if s.Harvest != nil {
		if !s.hasBattery() {
			return fmt.Errorf("scenario: harvest requires battery_uah or battery_node_uah")
		}
		if _, err := s.Harvest.Harvester(); err != nil {
			return err
		}
	}
	switch s.DeathPolicy {
	case "", DeathPolicyHaltNode, DeathPolicyHaltWorld:
	default:
		return fmt.Errorf("scenario: unknown death_policy %q (want %q or %q)",
			s.DeathPolicy, DeathPolicyHaltNode, DeathPolicyHaltWorld)
	}
	if s.Channel != 0 && (s.Channel < 11 || s.Channel > 26) {
		return fmt.Errorf("scenario: channel must be an 802.15.4 channel, 11..26 (or 0 for the default), got %d", s.Channel)
	}
	// Knobs whose zero selects the app default: a negative value would
	// silently run the default under a ConfigKey of its own.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"origins", float64(s.Origins)},
		{"volts", s.Volts},
		{"ram_buffer_entries", float64(s.RAMBufferEntries)},
		{"period_us", float64(s.PeriodUS)},
		{"hold_time_us", float64(s.HoldTimeUS)},
		{"payload_bytes", float64(s.PayloadBytes)},
		{"start_at_us", float64(s.StartAtUS)},
		{"check_period_us", float64(s.CheckPeriodUS)},
		{"receive_check_us", float64(s.ReceiveCheckUS)},
		{"false_positive_hold_us", float64(s.FalsePositiveHoldUS)},
		{"wifi_burst_us", float64(s.WiFiBurstUS)},
		{"wifi_gap_us", float64(s.WiFiGapUS)},
	} {
		if f.v < 0 {
			return fmt.Errorf("scenario: %s must be >= 0, got %v", f.name, f.v)
		}
	}
	switch s.Placement {
	case "", PlacementLine, PlacementGrid, PlacementRGG:
	default:
		return fmt.Errorf("scenario: unknown placement %q (want %q, %q or %q)",
			s.Placement, PlacementLine, PlacementGrid, PlacementRGG)
	}
	if s.Placement == "" {
		if s.AreaM != 0 || s.PathLossExp != 0 || s.TxRangeM != 0 || s.CaptureDB != 0 {
			return fmt.Errorf("scenario: area_m/path_loss_exp/tx_range_m/capture_db require a placement")
		}
	} else {
		if s.AreaM < 0 {
			return fmt.Errorf("scenario: area_m must be >= 0, got %v", s.AreaM)
		}
		if s.PathLossExp != 0 && (s.PathLossExp < 1 || s.PathLossExp > 8) {
			return fmt.Errorf("scenario: path_loss_exp must be in [1, 8] (or 0 for the default), got %v", s.PathLossExp)
		}
		if s.TxRangeM < 0 {
			return fmt.Errorf("scenario: tx_range_m must be >= 0, got %v", s.TxRangeM)
		}
		if s.CaptureDB < 0 {
			return fmt.Errorf("scenario: capture_db must be >= 0, got %v", s.CaptureDB)
		}
	}
	if s.DeathPolicy != "" && !s.hasBattery() {
		return fmt.Errorf("scenario: death_policy requires a finite battery")
	}
	switch s.Routing {
	case "", RoutingCTP:
	default:
		return fmt.Errorf("scenario: unknown routing %q (want %q)", s.Routing, RoutingCTP)
	}
	if s.Routing != "" && s.Placement == "" {
		return fmt.Errorf("scenario: routing requires a placement (a broadcast medium has no topology to route over)")
	}
	if s.BeaconPeriodMS < 0 {
		return fmt.Errorf("scenario: beacon_period_ms must be >= 0, got %d", s.BeaconPeriodMS)
	}
	if s.BeaconPeriodMS > 0 && s.Routing == "" {
		return fmt.Errorf("scenario: beacon_period_ms requires routing")
	}
	switch s.Mobility {
	case "", MobilityWaypoint, MobilityDrift:
	default:
		return fmt.Errorf("scenario: unknown mobility %q (want %q or %q)",
			s.Mobility, MobilityWaypoint, MobilityDrift)
	}
	if s.Mobility != "" && s.Placement == "" {
		return fmt.Errorf("scenario: mobility requires a placement")
	}
	if s.SpeedMPS < 0 {
		return fmt.Errorf("scenario: speed_mps must be >= 0, got %v", s.SpeedMPS)
	}
	if s.SpeedMPS > 0 && s.Mobility == "" {
		return fmt.Errorf("scenario: speed_mps requires mobility")
	}
	if s.Traffic != nil {
		if err := s.Traffic.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TrafficSources builds the per-sender send schedules for the given sender
// ids, in slot order, and the recorder that captures the schedule they
// realize. App constructors call it with the node ids of the senders the
// spec's traffic shape drives; a nil-Traffic spec returns all nils and the
// app drives its default schedule. Replay specs read their trace file here,
// so an unreadable or malformed trace fails the build, not the run.
func (s *Spec) TrafficSources(ids []core.NodeID) ([]traffic.Source, *traffic.Recorder, error) {
	if s.Traffic == nil {
		return nil, nil, nil
	}
	srcs, err := traffic.Sources(s.Traffic, s.Seed, ids)
	if err != nil {
		return nil, nil, err
	}
	return srcs, traffic.NewRecorder(ids), nil
}

// ConfigKey returns the canonical configuration string of a spec: its JSON
// encoding with the seed and cosmetic name cleared, since those name a run
// rather than configure it. Every other field is configuration. Two runs
// with the same ConfigKey are replicas of the same configuration under
// different seeds; the key is what seed derivation hashes and what
// Aggregate groups by.
func (s *Spec) ConfigKey() string {
	c := *s
	c.Seed = 0
	c.Name = ""
	b, err := json.Marshal(&c)
	if err != nil {
		// Spec is a plain struct of scalars; this cannot fail.
		panic(fmt.Sprintf("scenario: marshal spec: %v", err))
	}
	return string(b)
}

// splitmix64 is the finalizing mixer of the splitmix64 generator; it turns
// structured inputs (hashes, indexes) into well-distributed seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeriveSeed computes the seed of replica seedIndex of the configuration
// identified by configKey, under the matrix base seed. Because the
// derivation hashes the configuration content rather than the run's matrix
// position, the seed is stable when sweep lists are reordered or fields are
// added to the sweep, and replicas of different configurations never share a
// seed stream.
func DeriveSeed(base uint64, configKey string, seedIndex int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(configKey))
	return splitmix64(base ^ splitmix64(h.Sum64()^uint64(seedIndex)))
}

// Matrix is the declarative form of a parameter sweep: a base spec, a set of
// fields to sweep over value lists, and a replica count across derived
// seeds. Its JSON form is what `quanto-trace sweep` reads:
//
//	{
//	  "base":  {"app": "lpl", "duration_us": 14000000, "seed": 1},
//	  "sweep": {"channel": [17, 26], "check_period_us": [250000, 500000]},
//	  "seeds": 8
//	}
type Matrix struct {
	Base Spec `json:"base"`
	// Sweep maps a spec JSON field name to the list of values to expand
	// over. Sweeping "seed" directly is allowed (the listed seeds become
	// replicas of one configuration) but is mutually exclusive with Seeds.
	Sweep map[string][]any `json:"sweep,omitempty"`
	// Seeds > 0 replicates every configuration that many times under
	// derived seeds; 0 runs each configuration once with the base seed.
	Seeds int `json:"seeds,omitempty"`
}

// Expand produces the full run list: the cross product of every sweep list
// (fields in sorted-name order, the last field varying fastest), replicated
// across seeds (innermost). Every returned spec carries its final derived
// seed, so execution order cannot affect any run's randomness.
func (m *Matrix) Expand() ([]Spec, error) {
	// Validated in sorted key order so a matrix with several bad sweep lists
	// always reports the same error (map iteration order would pick one at
	// random).
	keys := slices.Sorted(maps.Keys(m.Sweep))
	for _, k := range keys {
		if len(m.Sweep[k]) == 0 {
			return nil, fmt.Errorf("scenario: sweep field %q has no values", k)
		}
		if (k == "seed" || k == "name") && m.Seeds > 0 {
			// Seed derivation hashes the configuration with seed and name
			// cleared, so sweeping either field under Seeds replication
			// would run byte-identical duplicates that the aggregate counts
			// as independent samples.
			return nil, fmt.Errorf(`scenario: sweeping %q and setting seeds (%d) are mutually exclusive`, k, m.Seeds)
		}
	}

	configs := []Spec{m.Base}
	for _, k := range keys {
		next := make([]Spec, 0, len(configs)*len(m.Sweep[k]))
		for _, base := range configs {
			for _, v := range m.Sweep[k] {
				sp, err := override(&base, k, v)
				if err != nil {
					return nil, err
				}
				next = append(next, *sp)
			}
		}
		configs = next
	}

	seeds := m.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	out := make([]Spec, 0, len(configs)*seeds)
	for _, cfg := range configs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		key := cfg.ConfigKey()
		for si := 0; si < seeds; si++ {
			sp := cfg
			if m.Seeds > 0 {
				sp.Seed = DeriveSeed(m.Base.Seed, key, si)
			}
			out = append(out, sp)
		}
	}
	return out, nil
}

// override returns a copy of spec with the JSON field named field set to v.
// The spec round-trips through map[string]json.RawMessage — untouched fields
// keep their exact wire form (a uint64 seed never passes through float64) —
// so any (current or future) spec field can be swept by its wire name, and
// unknown field names fail loudly instead of silently running the default.
func override(spec *Spec, field string, v any) (*Spec, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	vb, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("scenario: sweep field %q: %w", field, err)
	}
	m[field] = vb

	raw, err = json.Marshal(m)
	if err != nil {
		return nil, err
	}
	var out Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("scenario: sweep field %q: %w", field, err)
	}
	return &out, nil
}

// ParseSpecOrMatrix reads a JSON document that is either a single Spec or a
// Matrix (recognized by its "base" key) and returns the expanded run list
// either way.
func ParseSpecOrMatrix(data []byte) ([]Spec, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("scenario: parse spec file: %w", err)
	}
	if _, isMatrix := probe["base"]; isMatrix {
		var m Matrix
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		// Sweep lists land in []any; UseNumber keeps their literals exact
		// (json.Number re-marshals verbatim) instead of routing big integer
		// seeds through float64.
		dec.UseNumber()
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("scenario: parse matrix: %w", err)
		}
		return m.Expand()
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return []Spec{s}, nil
}
