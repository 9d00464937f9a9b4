// Package flash models an AT45DB-like external NOR flash with the
// handshake-visible power states the paper describes: the chip transitions
// between power-down, standby, read, write, and erase, and the driver
// shadows those transitions by watching the ready/busy line (Section 2.4's
// "more involved" driver example).
package flash

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/power"
	"repro/internal/units"
)

// Geometry and timing, modeled on the AT45DB161D datasheet.
const (
	PageSize                  = 528
	Pages                     = 4096
	WakeupTime    units.Ticks = 30
	PageReadTime  units.Ticks = 3 * units.Millisecond
	PageWriteTime units.Ticks = 4 * units.Millisecond
	PageEraseTime units.Ticks = 8 * units.Millisecond
)

// Flash is the external flash driver plus a simple in-memory page store.
type Flash struct {
	k   *kernel.Kernel
	ps  *core.PowerStateVar
	act *core.SingleActivityDevice
	arb *kernel.Arbiter
	irq *kernel.IRQ

	// pages is made by the first WritePage: most nodes never write.
	pages map[int][]byte

	busy   bool
	ops    uint64
	nextOp func()
}

// New registers the flash sink (initially powered down) and returns the
// driver.
func New(k *kernel.Kernel, b *power.Board) *Flash {
	f := &Flash{k: k}
	f.ps = core.NewPowerStateVar(k.Trk, power.ResFlash, power.FlashPowerDown)
	f.act = core.NewSingleActivityDevice(k.Trk, power.ResFlash)
	f.arb = k.NewArbiter(f.act)
	f.irq = k.NewIRQ("int_FLASH")
	b.AddSink(power.ResFlash, power.FlashPowerDown)
	return f
}

// Ops returns the number of completed operations.
func (f *Flash) Ops() uint64 { return f.ops }

// ReadPage reads page p; done receives a copy of its contents.
func (f *Flash) ReadPage(p int, done func(data []byte, err error)) {
	f.op(power.FlashRead, PageReadTime, func() ([]byte, error) {
		if p < 0 || p >= Pages {
			return nil, fmt.Errorf("flash: page %d out of range", p)
		}
		stored := f.pages[p]
		out := make([]byte, len(stored))
		copy(out, stored)
		return out, nil
	}, done)
}

// WritePage writes data to page p.
func (f *Flash) WritePage(p int, data []byte, done func(err error)) {
	f.op(power.FlashWrite, PageWriteTime, func() ([]byte, error) {
		if p < 0 || p >= Pages {
			return nil, fmt.Errorf("flash: page %d out of range", p)
		}
		if len(data) > PageSize {
			return nil, fmt.Errorf("flash: write of %d bytes exceeds page size", len(data))
		}
		stored := make([]byte, len(data))
		copy(stored, data)
		if f.pages == nil {
			f.pages = make(map[int][]byte)
		}
		f.pages[p] = stored
		return nil, nil
	}, func(_ []byte, err error) { done(err) })
}

// ErasePage erases page p.
func (f *Flash) ErasePage(p int, done func(err error)) {
	f.op(power.FlashErase, PageEraseTime, func() ([]byte, error) {
		if p < 0 || p >= Pages {
			return nil, fmt.Errorf("flash: page %d out of range", p)
		}
		delete(f.pages, p)
		return nil, nil
	}, func(_ []byte, err error) { done(err) })
}

// op serializes one flash operation through the arbiter. The chip-enable
// assertion wakes the chip (power-down -> standby), the command runs with
// the chip in its operation state, and the ready-line interrupt completes
// the operation, binding the proxy time to the requester's activity.
func (f *Flash) op(state core.PowerState, dur units.Ticks, body func() ([]byte, error), done func([]byte, error)) {
	label := f.k.CPUAct.Get()
	f.arb.Request(func() {
		if f.busy {
			panic("flash: concurrent operation despite arbiter")
		}
		f.busy = true
		f.k.Spend(70) // assert CS, issue command over the bus
		f.ps.Set(power.FlashStandby)
		f.k.Spend(units.Cycles(WakeupTime))
		f.ps.Set(state)
		f.irq.RaiseAfter(dur, func() {
			// Ready line asserted: the driver shadows the transition back
			// to standby and then powers the chip down.
			f.k.CPUAct.Bind(label)
			f.ps.Set(power.FlashStandby)
			f.k.Spend(60)
			data, err := body()
			f.ps.Set(power.FlashPowerDown)
			f.busy = false
			f.ops++
			f.arb.Release()
			f.k.PostLabeled(label, func() { done(data, err) })
		})
	})
}
