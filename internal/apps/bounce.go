package apps

import (
	"cmp"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mote"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/traffic"
	"repro/internal/units"
)

// BounceAMType is the Active Message type Bounce traffic uses.
const BounceAMType uint8 = 7

// bounceHoldTime is how long a Bounce node holds a packet: the paper's
// 220 ms.
const bounceHoldTime = 220 * units.Millisecond

// The paper's Bounce nodes.
const (
	bounceNodeA core.NodeID = 1
	bounceNodeB core.NodeID = 4
)

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
	// holds is each node's free list of hold records.
	holds [2]*bounceHold

	received [2]uint64
	sent     [2]uint64
	// Packets the injection schedule offered, the subset dropped because
	// the node's radio was still transmitting, and held packets dropped
	// the same way when their hold time ran out.
	injected    uint64
	injectDrops uint64
	holdDrops   uint64

	// traffic records each node's realized injections under a traffic shape.
	traffic *traffic.Recorder
}

// NewBounce builds the two-node world the spec describes into the empty
// world w: the paper's nodes 1 and 4 on Channel (default 26), holding each
// packet the paper's 220 ms (HoldTime, which a caller may change before
// the world runs), optionally over DMA. By default each node injects one
// packet; a traffic shape replaces that with a schedule per node (slot 0
// drives node 1, slot 1 node 4), and every injection starts a fresh packet
// bouncing (dropped at a busy radio), so offered load controls the
// bouncing population instead of pinning it.
func NewBounce(spec scenario.Spec, w *mote.World) (*Bounce, error) {
	ids := [2]core.NodeID{bounceNodeA, bounceNodeB}
	srcs, rec, err := spec.TrafficSources(ids[:])
	if err != nil {
		return nil, err
	}
	b := &Bounce{
		World:    w,
		HoldTime: bounceHoldTime,
		traffic:  rec,
	}
	rc := radio.Config{Channel: cmp.Or(spec.Channel, defaultChannel), UseDMA: spec.UseDMA}
	for i, id := range ids {
		b.Nodes[i] = addRadioNode(w, &spec, id, rc)
	}
	for i := range b.Nodes {
		b.setup(srcs, i, ids[1-i])
	}
	if err := spec.ApplySpatial(w); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *Bounce) setup(srcs []traffic.Source, i int, peer core.NodeID) {
	n := b.Nodes[i]
	k := n.K
	b.acts[i] = k.DefineActivity("BounceApp")

	n.AM.Register(BounceAMType, func(p *am.Packet) {
		// Handler runs with the CPU already bound to the packet's
		// originating activity; everything below inherits it, the hold
		// timer included, which restores it when it fires.
		b.received[i]++
		h := b.holds[i]
		if h == nil {
			h = b.newHold(i)
		} else {
			b.holds[i], h.next = h.next, nil
		}
		h.led = 2
		if p.Label().Origin() != n.ID {
			h.led = 1
		}
		h.payload = p.Payload
		n.LEDs.On(h.led)
		h.timer.StartOneShot(b.HoldTime)
	})

	k.Boot(func() {
		k.CPUAct.Set(b.acts[i])
		n.Radio.TurnOn(func() {
			n.Radio.StartListening()
			// By default each node injects one packet, offset so the two
			// packets interleave; a traffic shape injects on its schedule.
			src := traffic.At(k.NowTicks() + units.Ticks(50+100*i)*units.Millisecond)
			if srcs != nil {
				src = srcs[i]
			}
			sent := func() { b.sent[i]++ }
			traffic.Drive(k, src, b.traffic.Hook(i), func() {
				b.injected++
				if n.Radio.Busy() {
					b.injectDrops++
					return
				}
				out := &am.Packet{Dest: peer, Type: BounceAMType, Payload: make([]byte, 12)}
				n.AM.Send(out, sent)
			})
		})
		k.CPUAct.SetIdle()
	})
}

// bounceHold is one packet a node holds: the timer that sends it back, made
// with the record, the LED lit for it and its payload. Under a traffic shape
// a node can hold several packets at once, so each node keeps a free list of
// them; a record is in use from the reception until its packet has been
// sent back or dropped. Every record is made after the node's traffic.Drive
// timer, as the per-reception timers were, and two holds on one node never
// fall due on the same tick: each is armed at a distinct local time.
type bounceHold struct {
	b       *Bounce
	i       int // the holding node's index
	timer   *kernel.Timer
	sentFn  func()
	led     int
	payload []byte
	next    *bounceHold
}

func (b *Bounce) newHold(i int) *bounceHold {
	h := &bounceHold{b: b, i: i}
	h.timer = b.Nodes[i].K.NewTimer(h.fire)
	h.sentFn = h.sent
	return h
}

// fire ends the hold: send the packet onward (a busy radio drops it) and
// turn the LED off when it is done.
func (h *bounceHold) fire() {
	b, n := h.b, h.b.Nodes[h.i]
	if n.Radio.Busy() {
		n.LEDs.Off(h.led)
		b.holdDrops++
		h.free()
		return
	}
	out := &am.Packet{Dest: b.Nodes[1-h.i].ID, Type: BounceAMType, Payload: h.payload}
	n.AM.Send(out, h.sentFn)
}

func (h *bounceHold) sent() {
	h.b.Nodes[h.i].LEDs.Off(h.led)
	h.b.sent[h.i]++
	h.free()
}

func (h *bounceHold) free() {
	h.payload = nil
	h.b.holds[h.i], h.next = h, h.b.holds[h.i]
}

// Injections returns packets the injection schedule offered across both
// nodes (two by default) and the subset dropped at a busy radio.
func (b *Bounce) Injections() (offered, dropped uint64) { return b.injected, b.injectDrops }

// HoldDrops returns held packets dropped at a busy radio.
func (b *Bounce) HoldDrops() uint64 { return b.holdDrops }

// Stats returns per-node received/sent counts.
func (b *Bounce) Stats() (received, sent [2]uint64) { return b.received, b.sent }

// Activities returns the two BounceApp labels.
func (b *Bounce) Activities() [2]core.Label { return b.acts }

// Run advances the world and stamps the end.
func (b *Bounce) Run(d units.Ticks) {
	b.World.Run(d)
	b.World.StampEnd()
}
