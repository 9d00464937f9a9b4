// Package radio models a CC2420-like 802.15.4 transceiver and its TinyOS
// driver, instrumented for Quanto.
//
// The hardware side exposes four energy sinks (regulator, control path,
// receive path, transmit path — the radio rows of Table 1). The driver side
// reproduces the instrumentation points of the paper:
//
//   - loadTXFIFO paints the radio's transmit path with the CPU's current
//     activity before writing the FIFO (Figure 8);
//   - packet reception starts under the static pxy_RX proxy activity, the
//     FIFO drain runs under the int_UART0RX proxy (one interrupt per two
//     bytes), and the Active Message layer later binds all of it to the
//     activity carried in the packet (Figure 12b);
//   - the CPU-to-radio bus transfer can run interrupt-driven or via a DMA
//     channel (int_DACDMA), the design choice quantified in Figure 16.
package radio

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/medium"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
)

// Timing and cost constants of the modeled transceiver.
const (
	// StartupTime covers voltage regulator and crystal oscillator startup.
	StartupTime units.Ticks = 1600
	// ByteAirtime is the on-air time per byte at 250 kbps.
	ByteAirtime units.Ticks = 32
	// PreambleBytes + SFD precede the payload on the air.
	PreambleBytes = 5
	// SPIChunkBytes is how many bytes move per bus interrupt in
	// interrupt-driven mode ("an interrupt for every 2 bytes").
	SPIChunkBytes = 2
	// SPIByteTime is the bus transfer time per byte.
	SPIByteTime units.Ticks = 16
	// SPIHandlerCost is the CPU cost of one bus interrupt handler.
	SPIHandlerCost units.Cycles = 90
	// DMASetupCost configures the DMA controller for a whole transfer.
	DMASetupCost units.Cycles = 150
	// DMAHandlerCost runs once per completed DMA transfer.
	DMAHandlerCost units.Cycles = 60
	// CCASampleTime is the receiver-on time of one clear-channel check.
	CCASampleTime units.Ticks = 128
	// CCAThreshold is the normalized energy above which the channel is
	// considered busy.
	CCAThreshold = 0.05
	// BackoffMin/BackoffSpan bound the random CSMA backoff before
	// transmitting.
	BackoffMin  units.Ticks = 500
	BackoffSpan units.Ticks = 2000
)

// Config selects the driver variant.
type Config struct {
	Channel int
	// UseDMA selects DMA-based CPU-radio communication instead of the
	// interrupt-per-2-bytes default (the Figure 16 comparison).
	UseDMA bool
}

// Radio is one node's transceiver plus driver state.
type Radio struct {
	k   *kernel.Kernel
	med *medium.Medium
	cfg Config

	psReg *core.PowerStateVar
	psCtl *core.PowerStateVar
	psRx  *core.PowerStateVar
	psTx  *core.PowerStateVar

	// TxAct is the transmit path's activity (a single-activity device).
	TxAct *core.SingleActivityDevice
	// RxAct is the receive path's activity set; listening can serve several
	// activities at once (a multi-activity device).
	RxAct *core.MultiActivityDevice

	rxProxy  *kernel.IRQ // pxy_RX: start-of-frame on receive
	busIRQ   *kernel.IRQ // bus transfer: int_UART0RX, or int_DACDMA under UseDMA
	txSfdIRQ *kernel.IRQ
	ctlIRQ   *kernel.IRQ // int_RADIO: startup/txdone control events

	on           bool
	listening    bool
	sending      bool
	listenLbl    core.Label
	startupLabel core.Label

	receive func(*medium.Frame)

	// sfdFn / rxEndFn are the per-frame receive-path callbacks, created once
	// (the frame travels as the event argument) so every reception schedules
	// without allocating closures.
	sfdFn   func()
	rxEndFn func(any)

	// startupFn is the cached TurnOn completion handler; the initiating
	// label and done callback ride in startupLabel and startupDone instead
	// of a fresh closure per power-up.
	startupFn   func()
	startupDone func()

	// tx holds the send chain's state and handlers. It is made on the
	// first Send, so a radio that never sends allocates none of it.
	tx *sender
	// drains holds the receive drain records no frame is using.
	drains *drain

	ccaSamples   uint64
	ccaPositives uint64
}

// New attaches a radio to kernel k and medium med and registers the energy
// sinks on board b.
func New(k *kernel.Kernel, med *medium.Medium, b *power.Board, cfg Config) *Radio {
	r := &Radio{k: k, med: med, cfg: cfg}
	trk := k.Trk
	r.psReg = core.NewPowerStateVar(trk, power.ResRadioReg, power.RadioRegOff)
	r.psCtl = core.NewPowerStateVar(trk, power.ResRadioCtl, power.RadioCtlOff)
	r.psRx = core.NewPowerStateVar(trk, power.ResRadioRx, power.RadioRxOff)
	r.psTx = core.NewPowerStateVar(trk, power.ResRadioTx, power.RadioTxOff)
	r.TxAct = core.NewSingleActivityDevice(trk, power.ResRadioTx)
	r.RxAct = core.NewMultiActivityDevice(trk, power.ResRadioRx)
	r.rxProxy = k.NewIRQ("pxy_RX")
	// Both bus interrupts are defined, so every node has both proxy
	// activities whichever it uses.
	r.busIRQ = k.NewIRQ("int_UART0RX")
	if dma := k.NewIRQ("int_DACDMA"); cfg.UseDMA {
		r.busIRQ = dma
	}
	r.txSfdIRQ = k.NewIRQ("int_TIMERB1")
	r.ctlIRQ = k.NewIRQ("int_RADIO")
	b.AddSink(power.ResRadioReg, power.RadioRegOff)
	b.AddSink(power.ResRadioCtl, power.RadioCtlOff)
	b.AddSink(power.ResRadioRx, power.RadioRxOff)
	b.AddSink(power.ResRadioTx, power.RadioTxOff)
	r.sfdFn = func() {
		r.k.Spend(45) // note SFD timestamp, prime the driver state machine
	}
	r.rxEndFn = func(arg any) {
		f := arg.(*medium.Frame)
		if !r.listening {
			return // receiver shut off mid-frame; frame lost
		}
		if !r.med.Delivered(f, r.k.Node()) {
			return // corrupted by a colliding transmission (spatial medium)
		}
		r.drainRXFIFO(f)
	}
	r.startupFn = func() {
		// The driver stored the initiating activity; the startup interrupt
		// binds its proxy time to it.
		r.k.CPUAct.Bind(r.startupLabel)
		r.psCtl.Set(power.RadioCtlIdle)
		r.on = true
		r.k.Spend(40)
		if done := r.startupDone; done != nil {
			r.startupDone = nil
			r.k.Post(done)
		}
	}
	med.Register(r)
	return r
}

// Node implements medium.Receiver.
func (r *Radio) Node() core.NodeID { return r.k.Node() }

// OnReceive installs the link-layer receive callback, invoked in task
// context after the frame has been drained from the RXFIFO and before any
// activity binding (the Active Message layer does the binding).
func (r *Radio) OnReceive(fn func(*medium.Frame)) { r.receive = fn }

// Channel returns the configured 802.15.4 channel.
func (r *Radio) Channel() int { return r.cfg.Channel }

// SetChannel retunes the radio; allowed only while off.
func (r *Radio) SetChannel(ch int) {
	if r.on {
		panic("radio: channel change while on")
	}
	r.cfg.Channel = ch
}

// On reports whether the regulator and oscillator are up.
func (r *Radio) On() bool { return r.on }

// Busy reports whether a transmission is in progress (FIFO load, backoff,
// or on the air). Send panics if called while busy; link layers that want
// to drop or queue under load check this first.
func (r *Radio) Busy() bool { return r.sending }

// CCAStats returns how many clear-channel checks ran and how many reported
// energy on the channel.
func (r *Radio) CCAStats() (samples, positives uint64) {
	return r.ccaSamples, r.ccaPositives
}

// TurnOn powers the regulator and oscillator; done runs (under the caller's
// activity) once the radio reaches its idle state. Must be called from
// handler context.
func (r *Radio) TurnOn(done func()) {
	if r.on {
		if done != nil {
			r.k.Post(done)
		}
		return
	}
	r.startupLabel = r.k.CPUAct.Get()
	r.startupDone = done
	r.psReg.Set(power.RadioRegOn)
	r.k.Spend(30)
	r.ctlIRQ.RaiseAfter(StartupTime, r.startupFn)
}

// ForceOff models a brownout: the transceiver loses power without any driver
// involvement. Unlike TurnOff it charges no CPU work and produces no log
// entries — the caller (the mote's death path) disables the tracker first and
// the board stops supplying current, so the power-state variables are left
// where they were, exactly like a real supply collapse freezes the last
// logged state. Frames in the air are lost (the listening flag is cleared).
func (r *Radio) ForceOff() {
	r.on = false
	r.listening = false
	r.sending = false
}

// TurnOff drops the radio to its lowest-power state immediately.
func (r *Radio) TurnOff() {
	if r.listening {
		r.StopListening()
	}
	r.psTx.Set(power.RadioTxOff)
	r.psCtl.Set(power.RadioCtlOff)
	r.psReg.Set(power.RadioRegOff)
	r.on = false
	r.k.Spend(25)
}

// StartListening enables the receive path on behalf of the CPU's current
// activity.
func (r *Radio) StartListening() {
	if !r.on {
		panic("radio: listen while off")
	}
	if r.listening {
		return
	}
	r.listening = true
	r.listenLbl = r.k.CPUAct.Get()
	if !r.RxAct.Has(r.listenLbl) {
		_ = r.RxAct.Add(r.listenLbl)
	}
	r.psRx.Set(power.RadioRxListen)
	r.k.Spend(20)
}

// StopListening disables the receive path.
func (r *Radio) StopListening() {
	if !r.listening {
		return
	}
	r.listening = false
	r.psRx.Set(power.RadioRxOff)
	if r.RxAct.Has(r.listenLbl) {
		_ = r.RxAct.Remove(r.listenLbl)
	}
	r.k.Spend(20)
}

// SampleCCA performs one clear-channel assessment: the receive path runs for
// CCASampleTime and the RSSI is compared against the threshold. It reports
// true if energy was detected. Must be called with the radio on, from
// handler context; the receiver is left in its prior state.
func (r *Radio) SampleCCA() bool {
	if !r.on {
		panic("radio: CCA while off")
	}
	wasListening := r.listening
	if !wasListening {
		r.psRx.Set(power.RadioRxListen)
	}
	r.k.Spend(units.Cycles(CCASampleTime))
	// Position-aware under the spatial link layer (only audible
	// transmitters count); identical to the global query otherwise.
	busy := r.med.EnergyOnAt(r.k.Node(), r.cfg.Channel, r.k.NowTicks()) > CCAThreshold
	if !wasListening {
		r.psRx.Set(power.RadioRxOff)
	}
	r.ccaSamples++
	if busy {
		r.ccaPositives++
	}
	return busy
}

// Send transmits a frame: FIFO load (interrupt-driven or DMA), CSMA backoff,
// on-air transmission, then done (posted under the sending activity). The
// frame's airtime is computed from its length.
func (r *Radio) Send(f *medium.Frame, done func()) {
	if !r.on {
		panic("radio: send while off")
	}
	if r.sending {
		panic("radio: concurrent send")
	}
	r.sending = true
	f.Channel = r.cfg.Channel
	f.Src = r.k.Node()
	f.Airtime = units.Ticks(f.Bytes+PreambleBytes) * ByteAirtime

	if r.tx == nil {
		r.tx = newSender(r)
	}
	tx := r.tx
	tx.f, tx.done = f, done
	// loadTXFIFO: paint the radio with the CPU's current activity
	// (Figure 8), then move the bytes over the bus.
	tx.label = r.k.CPUAct.Get()
	r.TxAct.Set(tx.label)
	r.k.Spend(60) // packet preparation
	r.transferToFIFO()
}

// sender is the send chain of one radio: the frame in flight and what its
// steps carry from one interrupt to the next, and one handler per step.
// Send panics while a send runs, so one sender serves every frame.
type sender struct {
	r     *Radio
	f     *medium.Frame
	done  func()
	label core.Label // the sending activity, bound at every step
	// chunks counts the interrupt-driven FIFO load's chunks still to move.
	chunks       int
	wasListening bool

	busFn         func() // the bus interrupt: one SPI chunk, or the DMA completion
	transmitFn    func() // the backoff's end
	sfdFn         func() // the SFD capture
	transmittedFn func() // transmit-done
}

func newSender(r *Radio) *sender {
	tx := &sender{r: r}
	tx.busFn = tx.chunkMoved
	if r.cfg.UseDMA {
		tx.busFn = tx.dmaDone
	}
	tx.transmitFn = tx.transmit
	tx.sfdFn = tx.sfd
	tx.transmittedFn = tx.transmitted
	return tx
}

// chunkTime is the bus time of one interrupt-driven chunk.
const chunkTime = units.Ticks(SPIChunkBytes) * SPIByteTime

// chunksOf returns how many interrupt-driven chunks move n bytes.
func chunksOf(n int) int { return (n + SPIChunkBytes - 1) / SPIChunkBytes }

// transferToFIFO models the CPU-to-radio bus transfer of the frame's bytes,
// then backs off and transmits in interrupt context bound to the sending
// activity.
func (r *Radio) transferToFIFO() {
	tx := r.tx
	if r.cfg.UseDMA {
		r.k.Spend(DMASetupCost)
		r.busIRQ.RaiseAfter(units.Ticks(tx.f.Bytes)*SPIByteTime, tx.busFn)
		return
	}
	tx.chunks = chunksOf(tx.f.Bytes)
	r.busIRQ.RaiseAfter(chunkTime, tx.busFn)
}

// chunkMoved is the bus interrupt after each chunk of an interrupt-driven
// FIFO load; it re-arms itself until the last chunk has moved.
func (tx *sender) chunkMoved() {
	r := tx.r
	r.k.Spend(SPIHandlerCost)
	if tx.chunks--; tx.chunks > 0 {
		r.busIRQ.RaiseAfter(chunkTime, tx.busFn)
		return
	}
	r.k.CPUAct.Bind(tx.label)
	r.backoffAndTransmit()
}

// dmaDone is the DMA transfer-complete interrupt of a FIFO load.
func (tx *sender) dmaDone() {
	r := tx.r
	r.k.CPUAct.Bind(tx.label)
	r.k.Spend(DMAHandlerCost)
	r.backoffAndTransmit()
}

func (r *Radio) backoffAndTransmit() {
	backoff := BackoffMin + r.k.RNG().Ticks(BackoffSpan)
	r.ctlIRQ.RaiseAfter(backoff, r.tx.transmitFn)
}

// transmit is the control interrupt at the backoff's end: the frame goes on
// the air.
func (tx *sender) transmit() {
	r := tx.r
	r.k.CPUAct.Bind(tx.label)
	r.k.Spend(30)
	// The receiver shuts off for the duration of the transmission.
	tx.wasListening = r.listening
	if tx.wasListening {
		r.psRx.Set(power.RadioRxOff)
	}
	r.psTx.Set(power.RadioTx0dBm)
	r.med.Transmit(tx.f)
	// SFD capture interrupt shortly after the preamble leaves.
	r.txSfdIRQ.RaiseAfter(units.Ticks(PreambleBytes)*ByteAirtime, tx.sfdFn)
	// Transmit-done control interrupt.
	r.ctlIRQ.RaiseAfter(tx.f.Airtime, tx.transmittedFn)
}

func (tx *sender) sfd() { tx.r.k.Spend(35) }

// transmitted is the transmit-done control interrupt; it ends the send.
func (tx *sender) transmitted() {
	r := tx.r
	r.k.CPUAct.Bind(tx.label)
	r.psTx.Set(power.RadioTxOff)
	if tx.wasListening {
		r.psRx.Set(power.RadioRxListen)
	}
	r.TxAct.SetIdle()
	r.sending = false
	r.k.Spend(40)
	done := tx.done
	tx.f, tx.done = nil, nil
	if done != nil {
		r.k.Post(done)
	}
}

// FrameStart implements medium.Receiver: hardware noticed a frame beginning
// on the air. If the receive path is listening on the right channel, the SFD
// interrupt fires (under the pxy_RX proxy), the frame fills the RXFIFO for
// its airtime, and the driver then drains the FIFO over the bus and hands
// the frame up in task context. The return value tells the medium whether
// the receiver synced (false: off/busy/wrong channel — a MAC-level miss).
func (r *Radio) FrameStart(f *medium.Frame) bool {
	if !r.listening || r.sending || f.Channel != r.cfg.Channel {
		return false
	}
	now := r.k.Sim.Now()
	// Start-of-frame delimiter interrupt.
	r.rxProxy.Raise(now, r.sfdFn)
	// Frame lands in the RXFIFO when its last bit arrives; then the drain
	// begins. The drain runs under the bus proxy; Active Messages binds
	// everything once it decodes the activity field.
	r.k.Sim.ScheduleArg(now+f.Airtime, sim.PrioHardware, r.rxEndFn, f)
	return true
}

// drain is one received frame's trip from the RXFIFO over the bus to the
// link layer. Drains on one radio overlap: every chunk's handler waits
// behind a busy CPU, so a frame can land while the one before it is still
// draining. So each frame takes a record from the radio's free list, and
// the record goes back when its deliver task runs. The frame cannot carry
// this state: every receiver shares it.
type drain struct {
	r      *Radio
	f      *medium.Frame
	chunks int // interrupt-driven chunks still to move
	next   *drain

	busFn     func() // the bus interrupt: one SPI chunk, or the DMA completion
	deliverFn func()
}

func (r *Radio) drainRXFIFO(f *medium.Frame) {
	d := r.drains
	if d == nil {
		d = &drain{r: r}
		d.busFn = d.chunkMoved
		if r.cfg.UseDMA {
			d.busFn = d.dmaDone
		}
		d.deliverFn = d.deliver
	} else {
		r.drains, d.next = d.next, nil
	}
	d.f = f
	if r.cfg.UseDMA {
		// The driver pre-armed the DMA channel when it enabled reception,
		// so no CPU work happens until the transfer-complete interrupt.
		r.busIRQ.RaiseAfter(units.Ticks(f.Bytes)*SPIByteTime, d.busFn)
		return
	}
	d.chunks = chunksOf(f.Bytes)
	r.busIRQ.RaiseAfter(chunkTime, d.busFn)
}

// chunkMoved is the bus interrupt after each chunk of an interrupt-driven
// drain; it re-arms itself until the last chunk has moved.
func (d *drain) chunkMoved() {
	r := d.r
	r.k.Spend(SPIHandlerCost)
	if d.chunks--; d.chunks > 0 {
		r.busIRQ.RaiseAfter(chunkTime, d.busFn)
		return
	}
	// Last chunk: hand the packet to the link layer as a task. The task
	// inherits the bus proxy label; the AM layer will bind it to the
	// packet's activity.
	r.k.Post(d.deliverFn)
}

// dmaDone is the DMA transfer-complete interrupt of a drain.
func (d *drain) dmaDone() {
	d.r.k.Spend(DMAHandlerCost)
	d.r.k.Post(d.deliverFn)
}

// deliver hands the frame to the link layer and frees the record.
func (d *drain) deliver() {
	r, f := d.r, d.f
	d.f = nil
	r.drains, d.next = d, r.drains
	if r.receive != nil {
		r.receive(f)
	}
}
