package apps

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mote"
	"repro/internal/net"
	"repro/internal/radio"
	"repro/internal/scenario"
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

	// traffic records the origins' realized sends under a traffic shape.
	traffic *traffic.Recorder
}

// RelayOrigins returns the sender node ids of a relay line of hops nodes
// with the given origin count, which is also the slot order of its traffic
// shape: origins default to 1 and never include the line's final node (the
// sink). NewRelay rejects an origin count the clamp would cut.
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

// hopBudget is a packet's hop budget: enough for the longest loop-free route
// through the line plus the transient detours a re-forming tree can take,
// while still retiring a looping packet within a few beacon periods. It
// rides little-endian in the first two payload bytes, so no loop-free route
// — the fixed chain included — ever exhausts it.
func hopBudget(hops int) uint16 {
	return uint16(min(hops+3, math.MaxUint16))
}

// NewRelay builds the line network the spec describes: Nodes hops (default
// 3), Origins origins at the head of the line (default 1), each generating
// a packet every PeriodUS (default 1 s) on Channel (default 26). Packets
// flow from the origins to the sink (the line's final node) over one
// forwarding path; Routing only picks where each node's next hop comes
// from — the fixed chain (node i → i+1) or a collection tree (internal/net)
// rooted at the sink. The tree's payoff is resilience: when a relay's
// battery dies — or a mobile node drifts out of range — the tree re-forms
// around the hole and deliveries continue, where the fixed chain simply
// severs.
func NewRelay(spec scenario.Spec) (*Relay, error) {
	hops := cmp.Or(spec.Nodes, 3)
	if hops < 2 {
		return nil, fmt.Errorf("relay needs at least 2 nodes, got %d", spec.Nodes)
	}
	if spec.Origins > hops-1 {
		// The clamp would run fewer origins under a ConfigKey of their own:
		// a silently inert sweep axis, like the builders' routing guard.
		return nil, fmt.Errorf("relay origins must be <= nodes-1 = %d (the sink never originates), got %d",
			hops-1, spec.Origins)
	}
	origins := RelayOrigins(hops, spec.Origins)
	srcs, rec, err := spec.TrafficSources(origins)
	if err != nil {
		return nil, err
	}
	period := cmp.Or(units.Ticks(spec.PeriodUS), units.Second)
	w := mote.NewWorld(spec.Seed)
	r := &Relay{World: w, traffic: rec}

	rc := radio.Config{Channel: cmp.Or(spec.Channel, defaultChannel)}
	for i := 0; i < hops; i++ {
		r.Nodes = append(r.Nodes, addRadioNode(w, &spec, core.NodeID(i+1), rc))
	}

	// nextHop answers node i's routing question — where does a packet go
	// next? — at send time, so a reroute takes effect on the very next
	// packet. The sink collects and never asks.
	sink := len(r.Nodes) - 1
	var nextHop func(i int) (core.NodeID, bool)
	switch spec.Routing {
	case "":
		nextHop = func(i int) (core.NodeID, bool) { return r.Nodes[i+1].ID, true }
	case scenario.RoutingCTP:
		tree, err := net.NewTree(w, net.TreeConfig{
			Root:         r.Nodes[sink].ID,
			BeaconPeriod: units.Ticks(spec.BeaconPeriodMS) * units.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		r.Tree = tree
		nextHop = func(i int) (core.NodeID, bool) { return tree.Router(i).Parent() }
	default:
		return nil, fmt.Errorf("relay: unknown routing %q (want \"\" or %q)", spec.Routing, scenario.RoutingCTP)
	}
	budget := hopBudget(hops)

	// Every origin flies its own "Flood" activity so the butterfly-effect
	// accounting attributes each packet's multi-hop work to its true source.
	acts := make([]core.Label, len(origins))
	for o := range acts {
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
		// The schedule is armed under the Flood activity, so every fire
		// restores it. By default each origin runs the same period at its
		// own phase on a distinct odd residue, shifted half a period off the
		// beacon chain (beacons sit on even ticks): the phase counts from
		// the origin's own clock once Flood is set, so without the shift a
		// node's data tick would trail its own beacon tick by a fixed
		// ~millisecond every period and always find the radio mid-beacon.
		// Residual coincidences with other nodes' residues are absorbed by
		// the retry slot above. The phases stay because they define
		// simulated output. A traffic shape replaces them with its own
		// per-slot stagger.
		n.K.CPUAct.Set(acts[i])
		p := period
		src := traffic.Every(n.K.NowTicks()+p+(p/2+units.Ticks(2*i+1)*1009)%p, p)
		if srcs != nil {
			src = srcs[i]
		}
		traffic.Drive(n.K, src, rec.Hook(i), send)
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
				if i < len(origins) {
					startGen(i)
				}
			})
		})
	}
	for i := 1; i < len(r.Nodes); i++ {
		boot(i)
	}
	boot(0)
	if err := spec.ApplySpatial(w); err != nil {
		return nil, err
	}
	return r, nil
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
