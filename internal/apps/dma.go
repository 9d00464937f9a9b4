package apps

import (
	"cmp"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/radio"
	"repro/internal/scenario"
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

// NewDMACompare builds the two-node world the spec describes into the empty
// world w: sender node 1 sends one packet of PayloadBytes (default 30) to
// receiver node 2 at StartAtUS (default 100 ms), over DMA when UseDMA is
// set.
func NewDMACompare(spec scenario.Spec, w *mote.World) (*DMACompare, error) {
	rc := radio.Config{Channel: defaultChannel, UseDMA: spec.UseDMA}
	d := &DMACompare{World: w}
	d.Node = addRadioNode(w, &spec, 1, rc)
	d.Peer = addRadioNode(w, &spec, 2, rc)
	payloadBytes := cmp.Or(spec.PayloadBytes, 30)
	startAt := cmp.Or(units.Ticks(spec.StartAtUS), 100*units.Millisecond)

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
	if err := spec.ApplySpatial(w); err != nil {
		return nil, err
	}
	return d, nil
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
