package apps

import (
	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/radio"
	"repro/internal/units"
)

// DMAAMType is the Active Message type the comparison sends.
const DMAAMType uint8 = 3

// DMACompare reproduces the third case study (Figure 16): the timing of one
// packet transmission when the CPU feeds the radio over the bus with an
// interrupt every two bytes versus with a DMA channel. Each variant runs in
// its own world so the logs are directly comparable.
type DMACompare struct {
	World *mote.World
	Node  *mote.Node
	Peer  *mote.Node

	Act core.Label

	sendStart units.Ticks
	sendDone  units.Ticks
	completed bool
}

// NewDMACompare builds a two-node world (sender + receiver) and sends one
// packet of payloadBytes at startAt. Optional base options override the mote
// defaults (voltage, logging mode, battery) before the radio wiring: one
// value applies to both nodes, two values configure the sender (node 1) and
// receiver (node 2) individually.
func NewDMACompare(seed uint64, useDMA bool, payloadBytes int, startAt units.Ticks, base ...mote.Options) *DMACompare {
	return NewDMACompareQueue(seed, "", useDMA, payloadBytes, startAt, base...)
}

// NewDMACompareQueue is NewDMACompare with an explicit event-queue selection.
func NewDMACompareQueue(seed uint64, queue string, useDMA bool, payloadBytes int, startAt units.Ticks, base ...mote.Options) *DMACompare {
	w := mote.NewWorldQueue(seed, queue)
	mkOpts := func(idx int) mote.Options {
		o := mote.DefaultOptions()
		if len(base) > 0 {
			if idx >= len(base) {
				idx = len(base) - 1
			}
			o = base[idx]
		}
		o.Radio = true
		o.RadioConfig = radio.Config{Channel: 26, UseDMA: useDMA}
		return o
	}
	d := &DMACompare{World: w}
	d.Node = w.AddNode(1, mkOpts(0))
	d.Peer = w.AddNode(2, mkOpts(1))

	k := d.Node.K
	d.Act = k.DefineActivity("BounceApp") // the figure labels the send this way

	d.Peer.K.Boot(func() {
		d.Peer.Radio.TurnOn(func() { d.Peer.Radio.StartListening() })
	})

	k.Boot(func() {
		d.Node.Radio.TurnOn(nil)
		t := k.NewTimer(func() {
			k.CPUAct.Set(d.Act)
			d.sendStart = k.NowTicks()
			p := &am.Packet{Dest: d.Peer.ID, Type: DMAAMType, Payload: make([]byte, payloadBytes)}
			d.Node.AM.Send(p, func() {
				d.sendDone = k.NowTicks()
				d.completed = true
				k.CPUAct.SetIdle()
			})
		})
		t.StartOneShot(startAt)
		k.CPUAct.SetIdle()
	})
	return d
}

// Run advances the world and stamps the end.
func (d *DMACompare) Run(dur units.Ticks) {
	d.World.Run(dur)
	d.World.StampEnd()
}

// Timing returns the submit-to-done span of the transmission; ok is false if
// the send never completed.
func (d *DMACompare) Timing() (start, done units.Ticks, ok bool) {
	return d.sendStart, d.sendDone, d.completed
}
