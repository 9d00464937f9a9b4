// Package am implements the Active Message link layer with Quanto's hidden
// activity field.
//
// "To transfer activity labels across nodes, we added a hidden field to the
// TinyOS Active Message implementation. When a packet is submitted to the OS
// for transmission, the packet's activity field is set to the CPU's current
// activity. Upon decoding a packet, the AM layer on the receiving node sets
// the CPU activity to the activity in the packet, and binds resources used
// between the interrupt for the packet reception and the decoding to the
// same activity." (Section 3.3)
package am

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/medium"
	"repro/internal/radio"
)

// HeaderBytes is the Active Message header length on the air, including the
// hidden 16-bit activity label.
const HeaderBytes = 13

// Packet is one Active Message.
type Packet struct {
	Dest    core.NodeID
	Src     core.NodeID
	Type    uint8
	Payload []byte

	// label is the hidden activity field. It is set by Send and read by the
	// receiving AM layer; applications never touch it.
	label core.Label
}

// Label exposes the hidden field for tests and the accounting tooling.
func (p *Packet) Label() core.Label { return p.label }

// WireBytes returns the packet's on-air length.
func (p *Packet) WireBytes() int { return HeaderBytes + len(p.Payload) }

// Handler consumes a received packet. It runs in task context with the CPU
// already bound to the packet's originating activity.
type Handler func(*Packet)

// AM is one node's Active Message layer.
type AM struct {
	k     *kernel.Kernel
	radio *radio.Radio
	// handlers holds one entry per registered AM type, in registration
	// order. A node registers one or two types, so a scan finds a handler
	// as fast as a map would, and costs no table per node.
	handlers []typeHandler

	sent     uint64
	received uint64
}

// typeHandler is one registered AM type and its handler.
type typeHandler struct {
	amType uint8
	h      Handler
}

// New wires an AM layer over r.
func New(k *kernel.Kernel, r *radio.Radio) *AM {
	a := &AM{k: k, radio: r}
	r.OnReceive(a.deliver)
	return a
}

// Register installs the handler for an AM type.
func (a *AM) Register(amType uint8, h Handler) {
	if _, dup := a.handler(amType); dup {
		panic(fmt.Sprintf("am: duplicate handler for type %d", amType))
	}
	a.handlers = append(a.handlers, typeHandler{amType, h})
}

// handler returns the handler registered for amType and whether there is
// one.
func (a *AM) handler(amType uint8) (Handler, bool) {
	for _, th := range a.handlers {
		if th.amType == amType {
			return th.h, true
		}
	}
	return nil, false
}

// Stats returns packets sent and received.
func (a *AM) Stats() (sent, received uint64) { return a.sent, a.received }

// Send transmits p; done (optional) runs under the sending activity when the
// radio finishes. The hidden activity field is stamped with the CPU's
// current activity at submission time, so the packet is "colored the same as
// the activity which initiated its submission".
func (a *AM) Send(p *Packet, done func()) {
	p.Src = a.k.Node()
	p.label = a.k.CPUAct.Get()
	a.k.Spend(45) // header marshaling
	f := &medium.Frame{Bytes: p.WireBytes(), Payload: p}
	a.sent++
	a.radio.Send(f, done)
}

// deliver runs in task context under the bus-transfer proxy once the radio
// drained the frame. It decodes the AM header, terminates the proxy activity
// by binding the CPU to the packet's label, and dispatches to the handler.
func (a *AM) deliver(f *medium.Frame) {
	p, ok := f.Payload.(*Packet)
	if !ok {
		return
	}
	a.k.Spend(55) // header decode
	if p.Dest != a.k.Node() && p.Dest != BroadcastAddr {
		return
	}
	a.received++
	// Quanto: set the CPU activity to the activity noted in the packet and
	// bind the reception proxies to it.
	a.k.CPUAct.Bind(p.label)
	if h, _ := a.handler(p.Type); h != nil {
		h(p)
	}
}

// BroadcastAddr addresses every node in range. It is TinyOS's 16-bit
// AM_BROADCAST_ADDR, outside the id range of any line this repo builds; an
// 8-bit 0xFF would alias node 255, and a unicast to it would reach — and be
// forwarded by — every node in range.
const BroadcastAddr core.NodeID = 0xFFFF
