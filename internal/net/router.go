package net

import (
	"math"
	"sort"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/radio"
	"repro/internal/units"
)

// DefaultBeaconPeriod spaces routing beacons one second apart.
const DefaultBeaconPeriod = units.Second

// DefaultEnergyWeight is the parent-selection bias against energy-poor
// parents: an empty battery costs this many extra ETX in the comparison
// (never in the advertised cost). Half an expected transmission breaks ties
// toward fresher parents without overriding real link quality.
const DefaultEnergyWeight = 0.5

// switchHysteresis is how much better (in selection cost) a candidate must
// be before the router abandons a live parent — the standard CTP guard
// against parent flapping on noisy estimates.
const switchHysteresis = 0.5

// staleBeacons is how many silent beacon periods expel a neighbor from the
// table. Four periods keeps a gray-region link (PRR ≥ ~0.3) alive while
// evicting a broken one within seconds.
const staleBeacons = 4

// maxLinkETX caps the per-link estimate so one terrible link cannot poison
// the EWMA forever.
const maxLinkETX = 16.0

// etxAlphaNum/Den is the EWMA weight of history in the link estimator:
// etx' = (7·etx + gap)/8.
const (
	etxAlphaNum = 7
	etxAlphaDen = 8
)

// Neighbor is one row of a router's neighbor table.
type Neighbor struct {
	ID core.NodeID
	// LinkETX is the estimated expected transmissions over the link,
	// an EWMA of beacon sequence gaps.
	LinkETX float64
	// AdvETX is the neighbor's last advertised path ETX (+Inf: no route).
	AdvETX float64
	// Margin is the neighbor's last advertised remaining-energy fraction.
	Margin float64

	lastSeq   uint16
	seen      bool // a first beacon gives no gap, only a baseline
	lastHeard units.Ticks
}

// Config parameterizes one node's router.
type Config struct {
	// Root marks the collection root: it advertises path ETX 0 and never
	// selects a parent.
	Root bool
	// BeaconPeriod spaces this node's beacons (default DefaultBeaconPeriod).
	BeaconPeriod units.Ticks
	// Phase delays the first beacon. The Tree assigns every node a distinct
	// residue modulo the period so no two nodes' beacon timers systematically
	// share a tick — the same tie-freedom discipline the relay's staggered
	// generators follow.
	Phase units.Ticks
	// EnergyWeight biases parent selection against low-margin parents
	// (negative: no bias; zero selects DefaultEnergyWeight).
	EnergyWeight float64
}

// RouterStats is a snapshot of one router's counters.
type RouterStats struct {
	BeaconsTx      uint64
	BeaconsRx      uint64
	BeaconsSkipped uint64 // beacon rounds lost to a busy radio
	ParentChanges  uint64
	LoopAvoided    uint64 // selections rejected by the gradient check
}

// Router is one node's collection-tree state machine. All of its state is
// touched only from the owning node's events: beacon timer, AM delivery,
// and death notifications.
type Router struct {
	k   *kernel.Kernel
	am  *am.AM
	rad *radio.Radio
	cfg Config
	act core.Label

	table   []Neighbor  // sorted by ID
	parent  core.NodeID // 0: no route
	pathETX float64     // advertised cost: 0 at root, +Inf parentless

	seq      uint16
	marginFn func() float64 // nil: mains-powered, margin 1

	stats RouterStats
}

// NewRouter wires a router over a node's AM stack. Call Start once the
// radio is listening.
func NewRouter(k *kernel.Kernel, a *am.AM, rad *radio.Radio, cfg Config) *Router {
	if cfg.BeaconPeriod <= 0 {
		cfg.BeaconPeriod = DefaultBeaconPeriod
	}
	switch {
	case cfg.EnergyWeight < 0:
		cfg.EnergyWeight = 0
	case cfg.EnergyWeight == 0:
		cfg.EnergyWeight = DefaultEnergyWeight
	}
	r := &Router{k: k, am: a, rad: rad, cfg: cfg, pathETX: math.Inf(1)}
	if cfg.Root {
		r.pathETX = 0
	}
	r.act = k.DefineActivity("NetBeacon")
	a.Register(BeaconAMType, r.onBeacon)
	return r
}

// SetMarginFn installs the remaining-energy reading advertised in beacons
// (typically a battery's MarginFrac). Nil means mains power: margin 1.
func (r *Router) SetMarginFn(fn func() float64) { r.marginFn = fn }

// Start arms the beacon chain under the router's own activity label, so the
// tree's control-plane energy is attributed to routing rather than to
// whatever app work happened to be running.
func (r *Router) Start() {
	t := r.k.NewTimer(r.beaconFire)
	r.k.CPUAct.Set(r.act)
	t.StartPeriodicAfter(r.cfg.Phase, r.cfg.BeaconPeriod)
	r.k.CPUAct.SetIdle()
}

// Parent returns the current next hop toward the root (0, false: no route).
func (r *Router) Parent() (core.NodeID, bool) { return r.parent, r.parent != 0 }

// PathETX returns the node's advertised cost to the root.
func (r *Router) PathETX() float64 { return r.pathETX }

// Stats returns the router's counters.
func (r *Router) Stats() RouterStats { return r.stats }

// neighbor finds a table row by id, or nil.
func (r *Router) neighbor(id core.NodeID) *Neighbor {
	i := sort.Search(len(r.table), func(i int) bool { return r.table[i].ID >= id })
	if i < len(r.table) && r.table[i].ID == id {
		return &r.table[i]
	}
	return nil
}

// ensureNeighbor returns the row for id, inserting a fresh one in sorted
// position if absent.
func (r *Router) ensureNeighbor(id core.NodeID) *Neighbor {
	i := sort.Search(len(r.table), func(i int) bool { return r.table[i].ID >= id })
	if i < len(r.table) && r.table[i].ID == id {
		return &r.table[i]
	}
	r.table = append(r.table, Neighbor{})
	copy(r.table[i+1:], r.table[i:])
	r.table[i] = Neighbor{ID: id, LinkETX: 1, AdvETX: math.Inf(1)}
	return &r.table[i]
}

// onBeacon folds a received beacon into the neighbor table and reconsiders
// the parent. Runs in task context on the receiving node, bound to the
// sender's beacon activity.
func (r *Router) onBeacon(p *am.Packet) {
	b, ok := decodeBeacon(p.Payload)
	if !ok {
		return
	}
	r.stats.BeaconsRx++
	nb := r.ensureNeighbor(p.Src)
	if nb.seen {
		// The gap between consecutively *heard* sequence numbers is a
		// geometric sample with mean 1/PRR — exactly the link's ETX.
		gap := b.Seq - nb.lastSeq // uint16 arithmetic handles wrap
		if gap == 0 {
			gap = 1
		}
		e := (etxAlphaNum*nb.LinkETX + float64(gap)) / etxAlphaDen
		if e > maxLinkETX {
			e = maxLinkETX
		}
		nb.LinkETX = e
	}
	nb.seen = true
	nb.lastSeq = b.Seq
	nb.AdvETX = b.PathETX
	nb.Margin = b.Margin
	nb.lastHeard = r.k.Sim.Now()
	r.reselect()
}

// beaconFire is one beacon round: expel stale neighbors, refresh the
// advertised cost, and broadcast — unless the radio is mid-transmission, in
// which case the round is skipped (beacons are soft state; the next round
// repairs it).
func (r *Router) beaconFire() {
	r.pruneStale(r.k.Sim.Now())
	r.reselect()
	r.seq++
	margin := 1.0
	if r.marginFn != nil {
		margin = r.marginFn()
	}
	if r.rad.Busy() {
		r.stats.BeaconsSkipped++
		return
	}
	b := Beacon{Seq: r.seq, PathETX: r.pathETX, Margin: margin}
	out := &am.Packet{
		Dest:    am.BroadcastAddr,
		Type:    BeaconAMType,
		Payload: b.encode(make([]byte, 0, BeaconBytes)),
	}
	r.stats.BeaconsTx++
	r.am.Send(out, nil)
}

// pruneStale drops neighbors silent for staleBeacons periods. A vanished
// parent (moved away, crashed) is noticed here even without a death event.
func (r *Router) pruneStale(now units.Ticks) {
	horizon := units.Ticks(staleBeacons) * r.cfg.BeaconPeriod
	kept := r.table[:0]
	for _, nb := range r.table {
		if now-nb.lastHeard <= horizon {
			kept = append(kept, nb)
			continue
		}
		if nb.ID == r.parent {
			r.parent = 0
			r.pathETX = math.Inf(1)
		}
	}
	r.table = kept
}

// NeighborDied removes a dead node from the table immediately — the
// topology event the Tree delivers one BackoffMin after a battery death —
// and re-selects the parent if the dead node was it.
func (r *Router) NeighborDied(id core.NodeID) {
	i := sort.Search(len(r.table), func(i int) bool { return r.table[i].ID >= id })
	if i >= len(r.table) || r.table[i].ID != id {
		return
	}
	r.table = append(r.table[:i], r.table[i+1:]...)
	if r.parent == id {
		r.parent = 0
		r.pathETX = math.Inf(1)
	}
	r.reselect()
}

// reselect recomputes the parent. Selection minimizes advertised-plus-link
// ETX biased by the energy weight against low-margin parents; the advertised
// cost itself stays unbiased. The gradient check — a new parent's offered
// cost must strictly undercut the current path ETX — is what keeps the tree
// a DAG: a descendant advertises a cost above ours by construction, so it
// can never pass.
func (r *Router) reselect() {
	if r.cfg.Root {
		return
	}
	// Refresh the advertised cost from the current parent first: a parent
	// whose link or own route degraded raises our cost, which is exactly
	// what lets a better candidate pass the strict-improvement check below.
	if cur := r.neighbor(r.parent); cur != nil && !math.IsInf(cur.AdvETX, 1) {
		r.pathETX = cur.AdvETX + cur.LinkETX
	} else if r.parent != 0 {
		r.parent = 0
		r.pathETX = math.Inf(1)
	}

	best := -1
	bestSel := math.Inf(1)
	for i := range r.table {
		nb := &r.table[i]
		if math.IsInf(nb.AdvETX, 1) {
			continue
		}
		sel := nb.AdvETX + nb.LinkETX + r.cfg.EnergyWeight*(1-nb.Margin)
		// Strict < keeps the lowest id on exact ties (the table is sorted).
		if sel < bestSel {
			best, bestSel = i, sel
		}
	}
	if best < 0 {
		return
	}
	cand := &r.table[best]
	if cand.ID == r.parent {
		return
	}
	offered := cand.AdvETX + cand.LinkETX
	if offered >= r.pathETX {
		// Gradient check: the candidate does not decrease the path cost —
		// routing through it could be routing through our own subtree.
		r.stats.LoopAvoided++
		return
	}
	if r.parent != 0 && r.pathETX-offered < switchHysteresis {
		// A live parent is only abandoned for a clear improvement.
		return
	}
	r.parent = cand.ID
	r.pathETX = offered
	r.stats.ParentChanges++
}
