package apps

import (
	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/radio"
	"repro/internal/traffic"
	"repro/internal/units"
)

// BounceAMType is the Active Message type Bounce traffic uses.
const BounceAMType uint8 = 7

// Bounce is the paper's cross-node tracking example (Section 4.2.2): two
// nodes exchange two packets, each packet originating from one of the nodes
// and perpetually bouncing between them. All work a node performs for a
// packet — reception, holding it (with an LED lit), and retransmission — is
// charged to the packet's original activity, even on the other node.
//
// LED assignment follows the paper: LED1 is lit while the node holds the
// packet of the *other* node's activity, LED2 while it holds its own.
type Bounce struct {
	World *mote.World
	Nodes [2]*mote.Node

	// HoldTime is how long a node keeps a packet before sending it back.
	HoldTime units.Ticks

	acts [2]core.Label

	received [2]uint64
	sent     [2]uint64
	// Shaped-load injection counters: packets the traffic schedule offered,
	// and the subset dropped because the node's radio was still
	// transmitting.
	injected    uint64
	injectDrops uint64
}

// BounceConfig parameterizes the run.
type BounceConfig struct {
	NodeA, NodeB core.NodeID
	Channel      int
	HoldTime     units.Ticks
	UseDMA       bool
	// Base, when set, seeds each node's mote options (voltage, kernel,
	// logging mode) before the radio wiring is applied; nil selects
	// mote.DefaultOptions.
	Base *mote.Options
	// PerNode, when set, adjusts each node's options after Base is copied
	// (called with NodeA's and NodeB's ids).
	PerNode func(id core.NodeID, o *mote.Options)
	// Traffic, when non-nil, replaces the two boot kicks with shaped packet
	// injection: slot 0 drives NodeA, slot 1 NodeB, and every scheduled
	// injection starts a fresh packet bouncing (dropped while the node's
	// radio is still transmitting), so offered load controls the bouncing
	// population instead of it being pinned at two.
	Traffic []traffic.Source
	// TrafficRec, when non-nil, captures each node's realized injections.
	TrafficRec *traffic.Recorder
}

// DefaultBounceConfig matches the paper's setup: nodes 1 and 4.
func DefaultBounceConfig() BounceConfig {
	return BounceConfig{
		NodeA:    1,
		NodeB:    4,
		Channel:  26,
		HoldTime: 220 * units.Millisecond,
	}
}

// NewBounce builds a two-node world running Bounce.
func NewBounce(seed uint64, cfg BounceConfig) *Bounce {
	if cfg.HoldTime == 0 {
		cfg.HoldTime = 220 * units.Millisecond
	}
	w := mote.NewWorld(seed)
	b := &Bounce{World: w, HoldTime: cfg.HoldTime}

	ids := [2]core.NodeID{cfg.NodeA, cfg.NodeB}
	for i, id := range ids {
		opts := mote.DefaultOptions()
		if cfg.Base != nil {
			opts = *cfg.Base
		}
		if cfg.PerNode != nil {
			cfg.PerNode(id, &opts)
		}
		opts.Radio = true
		opts.RadioConfig = radio.Config{Channel: cfg.Channel, UseDMA: cfg.UseDMA}
		b.Nodes[i] = w.AddNode(id, opts)
	}

	for i := range b.Nodes {
		b.setup(&cfg, i, ids[1-i])
	}
	return b
}

func (b *Bounce) setup(cfg *BounceConfig, i int, peer core.NodeID) {
	n := b.Nodes[i]
	k := n.K
	b.acts[i] = k.DefineActivity("BounceApp")

	n.AM.Register(BounceAMType, func(p *am.Packet) {
		// Handler runs with the CPU already bound to the packet's
		// originating activity; everything below inherits it.
		b.received[i]++
		led := 2
		if p.Label().Origin() != n.ID {
			led = 1
		}
		n.LEDs.On(led)
		hold := k.NewTimer(func() {
			// The timer restored the packet's activity; send it onward and
			// turn the LED off when the radio is done.
			out := &am.Packet{Dest: peer, Type: BounceAMType, Payload: p.Payload}
			n.AM.Send(out, func() {
				n.LEDs.Off(led)
				b.sent[i]++
			})
		})
		hold.StartOneShot(b.HoldTime)
	})

	k.Boot(func() {
		k.CPUAct.Set(b.acts[i])
		n.Radio.TurnOn(func() {
			n.Radio.StartListening()
			if cfg.Traffic != nil {
				// Shaped load: inject fresh packets on the node's schedule
				// instead of the single kick. Each injection that finds the
				// radio free starts another packet bouncing forever, so the
				// steady-state population tracks the offered rate.
				var rec func(units.Ticks)
				if cfg.TrafficRec != nil {
					rec = cfg.TrafficRec.Hook(i)
				}
				traffic.Drive(k, cfg.Traffic[i], rec, func() {
					b.injected++
					if n.Radio.Busy() {
						b.injectDrops++
						return
					}
					out := &am.Packet{Dest: peer, Type: BounceAMType, Payload: make([]byte, 12)}
					n.AM.Send(out, func() { b.sent[i]++ })
				})
				return
			}
			// Each node originates one packet, offset so the two packets
			// interleave.
			kick := k.NewTimer(func() {
				out := &am.Packet{Dest: peer, Type: BounceAMType, Payload: make([]byte, 12)}
				n.AM.Send(out, func() { b.sent[i]++ })
			})
			kick.StartOneShot(units.Ticks(50+100*i) * units.Millisecond)
		})
		k.CPUAct.SetIdle()
	})
}

// Injections returns shaped-load injection counts: packets the traffic
// schedule offered across both nodes, and the subset dropped at a busy
// radio. Both are zero for the classic two-packet run.
func (b *Bounce) Injections() (offered, dropped uint64) { return b.injected, b.injectDrops }

// Stats returns per-node received/sent counts.
func (b *Bounce) Stats() (received, sent [2]uint64) { return b.received, b.sent }

// Activities returns the two BounceApp labels.
func (b *Bounce) Activities() [2]core.Label { return b.acts }

// Run advances the world and stamps the end.
func (b *Bounce) Run(d units.Ticks) {
	b.World.Run(d)
	b.World.StampEnd()
}
