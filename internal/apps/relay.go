package apps

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mote"
	"repro/internal/net"
	"repro/internal/radio"
	"repro/internal/traffic"
	"repro/internal/units"
)

// RelayAMType is the Active Message type of relayed traffic.
const RelayAMType uint8 = 13

// Relay is a multihop line network demonstrating the paper's "butterfly
// effect" tracking (Section 5.3): a packet originated at the head of the
// line is forwarded hop by hop to the sink at its end, and every hop's work
// — reception, queueing, retransmission, radio time — is charged to the
// origin's activity, because the label rides the packet across every hop.
//
// Forwarding uses an instrumented queue: the saved activity is restored when
// the queued packet is serviced, the paper's "forwarding queues in
// protocols" instrumentation point.
type Relay struct {
	World *mote.World
	Nodes []*mote.Node

	Act core.Label // the first origin's activity ("Flood")

	// Tree is the collection tree routing the packets (Routing "ctp"); nil
	// on the fixed chain.
	Tree *net.Tree

	generated uint64
	dropped   uint64
	delivered uint64

	// Packets dropped for want of a route, packets whose hop budget expired
	// (a transient routing loop), and the sink-side timestamp of the last
	// delivery.
	noRoute         uint64
	ttlDrops        uint64
	lastDeliveredAt units.Ticks
}

// RelayConfig parameterizes the line network.
type RelayConfig struct {
	Hops    int // number of nodes in the line (>= 2)
	Channel int
	Period  units.Ticks // packet generation period at each origin
	// Origins is how many nodes at the head of the line generate traffic
	// (nodes 1..Origins, each sending toward the line's end); 0 selects a
	// single origin. More origins spread offered load across the
	// topology.
	Origins int
	// Base, when set, seeds each node's mote options before the radio
	// wiring is applied; nil selects mote.DefaultOptions.
	Base *mote.Options
	// PerNode, when set, adjusts each node's options after Base is copied
	// (node ids are 1..Hops). Lifetime scenarios use it to give individual
	// hops different battery capacities.
	PerNode func(id core.NodeID, o *mote.Options)
	// Traffic, when non-nil, replaces every origin's fixed-period generation
	// with a shaped schedule: slot i drives origin i (node i+1). Length must
	// be the (clamped) origin count — scenario builders size it with
	// RelayOrigins.
	Traffic []traffic.Source
	// TrafficRec, when non-nil, captures every origin's realized sends
	// (slot i records origin i) for record-and-replay.
	TrafficRec *traffic.Recorder
	// Routing selects where each node's next hop comes from: "" routes
	// along the fixed chain (node i → i+1), "ctp" along a collection tree
	// rooted at the line's final node (internal/net), so topology changes
	// (death, mobility) change where packets flow instead of severing the
	// line. Both share one generator and one forwarder.
	Routing string
	// BeaconPeriod spaces the tree's routing beacons (default
	// net.DefaultBeaconPeriod). Ignored on the fixed chain.
	BeaconPeriod units.Ticks
}

// RelayOrigins returns the sender node ids a relay config's traffic shape
// drives, applying the same clamps NewRelay applies: origins default to 1
// and never include the line's final node (the sink). The scenario builder
// rejects an origin count the clamp would cut.
func RelayOrigins(hops, origins int) []core.NodeID {
	if hops < 2 {
		hops = 2
	}
	if origins < 1 {
		origins = 1
	}
	if origins > hops-1 {
		origins = hops - 1
	}
	ids := make([]core.NodeID, origins)
	for i := range ids {
		ids[i] = core.NodeID(i + 1)
	}
	return ids
}

// DefaultRelayConfig builds a 3-hop line generating a packet per second.
func DefaultRelayConfig() RelayConfig {
	return RelayConfig{Hops: 3, Channel: 26, Period: units.Second}
}

// hopBudget is a packet's hop budget: enough for the longest loop-free route
// through the line plus the transient detours a re-forming tree can take,
// while still retiring a looping packet within a few beacon periods. It
// rides little-endian in the first two payload bytes, so no loop-free route
// — the fixed chain included — ever exhausts it.
func hopBudget(hops int) uint16 {
	return uint16(min(hops+3, math.MaxUint16))
}

// NewRelay builds the line network. Packets flow from the origins to the
// sink (the line's final node) over one forwarding path; Routing only picks
// where each node's next hop comes from — the fixed chain (node i → i+1) or
// a collection tree (internal/net) rooted at the sink. The tree's payoff is
// resilience: when a relay's battery dies — or a mobile node drifts out of
// range — the tree re-forms around the hole and deliveries continue, where
// the fixed chain simply severs.
//
// Unknown routing planes panic loudly: scenario validation gates the
// strings, so reaching here with a typo is a programming error, not an
// input error.
func NewRelay(seed uint64, cfg RelayConfig) *Relay {
	if cfg.Hops < 2 {
		cfg.Hops = 2
	}
	if cfg.Period == 0 {
		cfg.Period = units.Second
	}
	cfg.Origins = len(RelayOrigins(cfg.Hops, cfg.Origins))
	w := mote.NewWorld(seed)
	r := &Relay{World: w}

	for i := 0; i < cfg.Hops; i++ {
		opts := mote.DefaultOptions()
		if cfg.Base != nil {
			opts = *cfg.Base
		}
		if cfg.PerNode != nil {
			cfg.PerNode(core.NodeID(i+1), &opts)
		}
		opts.Radio = true
		opts.RadioConfig = radio.Config{Channel: cfg.Channel}
		r.Nodes = append(r.Nodes, w.AddNode(core.NodeID(i+1), opts))
	}

	// nextHop answers node i's routing question — where does a packet go
	// next? — at send time, so a reroute takes effect on the very next
	// packet. The sink collects and never asks.
	sink := len(r.Nodes) - 1
	var nextHop func(i int) (core.NodeID, bool)
	switch cfg.Routing {
	case "":
		nextHop = func(i int) (core.NodeID, bool) { return r.Nodes[i+1].ID, true }
	case "ctp":
		tree, err := net.NewTree(w, net.TreeConfig{Root: r.Nodes[sink].ID, BeaconPeriod: cfg.BeaconPeriod})
		if err != nil {
			// Unreachable: every node above was built with a radio.
			panic(err)
		}
		r.Tree = tree
		nextHop = func(i int) (core.NodeID, bool) { return tree.Router(i).Parent() }
	default:
		panic(fmt.Sprintf("apps: unknown routing plane %q (want \"\" or \"ctp\")", cfg.Routing))
	}
	budget := hopBudget(cfg.Hops)

	// Every origin flies its own "Flood" activity so the butterfly-effect
	// accounting attributes each packet's multi-hop work to its true source.
	acts := make([]core.Label, cfg.Origins)
	for o := 0; o < cfg.Origins; o++ {
		acts[o] = r.Nodes[o].K.DefineActivity("Flood")
	}
	r.Act = acts[0]

	// startGen arms origin i's packet generation under its Flood activity;
	// called once the node's radio listens. No next hop (tree still forming,
	// or re-forming after a death) counts separately from a busy radio: the
	// first is the control plane's lag, the second is offered load beyond
	// capacity.
	//
	// A busy radio parks the packet in a one-deep retry slot instead of
	// dropping outright: routing beacons share the radio with data on fixed
	// periodic residues, and one unlucky residue pairing would otherwise
	// starve an origin every single period. The slot re-arms on a fixed
	// delay until the radio frees (transmissions are finite, so it always
	// does); packets generated while the slot is held drop — single-buffer
	// semantics, one packet deep.
	const busyRetry units.Ticks = 4000
	startGen := func(i int) {
		n := r.Nodes[i]
		var held bool // the retry slot: one deferred packet at most
		xmit := func() bool {
			next, ok := nextHop(i)
			if !ok {
				r.noRoute++
				return true
			}
			if n.Radio.Busy() {
				return false
			}
			payload := make([]byte, 8)
			binary.LittleEndian.PutUint16(payload, budget)
			out := &am.Packet{Dest: next, Type: RelayAMType, Payload: payload}
			n.AM.Send(out, nil)
			return true
		}
		var retry *kernel.Timer
		retry = n.K.NewTimer(func() {
			if !xmit() {
				retry.StartOneShot(busyRetry)
				return
			}
			held = false
		})
		send := func() {
			r.generated++
			if held {
				// The single buffer already holds a deferred packet.
				r.dropped++
				return
			}
			if !xmit() {
				held = true
				retry.StartOneShot(busyRetry)
			}
		}
		if cfg.Traffic != nil {
			// Shaped load: the origin's schedule comes from the traffic
			// engine, armed under the Flood activity so every fire restores
			// it — the same instrumentation the periodic path gets. The
			// engine's per-slot stagger keeps origins off each other's ticks.
			var rec func(units.Ticks)
			if cfg.TrafficRec != nil {
				rec = cfg.TrafficRec.Hook(i)
			}
			n.K.CPUAct.Set(acts[i])
			traffic.Drive(n.K, cfg.Traffic[i], rec, send)
			n.K.CPUAct.SetIdle()
			return
		}
		gen := n.K.NewTimer(send)
		n.K.CPUAct.Set(acts[i])
		// Each origin runs the same period at its own phase on a distinct
		// odd residue, shifted half a period off the beacon chain (beacons
		// sit on even ticks): timers phase against the node's own boot
		// completion, so without the shift a node's data tick would trail
		// its own beacon tick by a fixed ~millisecond every period and
		// always find the radio mid-beacon. Residual coincidences with
		// other nodes' residues are absorbed by the retry slot above. The
		// phases stay because they define simulated output.
		p := cfg.Period
		gen.StartPeriodicAfter(p+(p/2+units.Ticks(2*i+1)*1009)%p, p)
		n.K.CPUAct.SetIdle()
	}

	// Every node but the sink is a potential forwarder. The forward rides an
	// instrumented queue: Post saves the current (origin's) activity and
	// restores it when the queued entry is serviced, so the butterfly-effect
	// accounting follows the packet across whatever route it takes. A
	// forwarder still transmitting the previous packet drops the new one —
	// the single-buffer behavior that caps throughput when the generation
	// period approaches the per-hop latency.
	for i, n := range r.Nodes {
		n.AM.Register(RelayAMType, func(p *am.Packet) {
			// Runs bound to the origin's activity already.
			if i == sink {
				r.delivered++
				r.lastDeliveredAt = n.K.Sim.Now()
				n.LEDs.Toggle(1)
				return
			}
			if len(p.Payload) < 2 || binary.LittleEndian.Uint16(p.Payload) == 0 {
				// Hop budget exhausted: a transient loop while the tree
				// re-forms. Retire the packet instead of orbiting.
				r.ttlDrops++
				return
			}
			left := binary.LittleEndian.Uint16(p.Payload) - 1
			n.K.Post(func() {
				next, ok := nextHop(i)
				if !ok {
					r.noRoute++
					return
				}
				if n.Radio.Busy() {
					r.dropped++
					return
				}
				payload := append([]byte(nil), p.Payload...)
				binary.LittleEndian.PutUint16(payload, left)
				out := &am.Packet{Dest: next, Type: RelayAMType, Payload: payload}
				n.AM.Send(out, nil)
			})
		})
	}

	// Nodes 2..N boot first and the first origin last. A routed node starts
	// its router once the radio is listening, so the first beacons land on
	// live receivers.
	boot := func(i int) {
		n := r.Nodes[i]
		n.K.Boot(func() {
			n.Radio.TurnOn(func() {
				n.Radio.StartListening()
				if r.Tree != nil {
					r.Tree.Router(i).Start()
				}
				if i < cfg.Origins {
					startGen(i)
				}
			})
		})
	}
	for i := 1; i < len(r.Nodes); i++ {
		boot(i)
	}
	boot(0)
	return r
}

// Run advances the world and stamps the end.
func (r *Relay) Run(d units.Ticks) {
	r.World.Run(d)
	r.World.StampEnd()
}

// Stats returns packets generated across all origins and delivered at the
// sink.
func (r *Relay) Stats() (generated, delivered uint64) { return r.generated, r.delivered }

// Dropped returns packets discarded because a node's radio was still
// transmitting the previous one (offered load beyond capacity).
func (r *Relay) Dropped() uint64 { return r.dropped }

// NoRoute returns packets dropped because the node had no next hop yet
// (tree still forming, or re-forming after a death). The fixed chain's
// static route always exists, so it never counts one.
func (r *Relay) NoRoute() uint64 { return r.noRoute }

// TTLDrops returns packets whose hop budget expired — the data-plane
// backstop against transient routing loops. The budget covers every
// loop-free route, so the fixed chain never counts one.
func (r *Relay) TTLDrops() uint64 { return r.ttlDrops }

// LastDeliveredAt returns when the sink last received a packet (0: never).
// The cascade scenarios read it to show deliveries continuing past the
// first relay death.
func (r *Relay) LastDeliveredAt() units.Ticks { return r.lastDeliveredAt }
