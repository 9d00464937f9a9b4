package radio

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/medium"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/units"
)

type rig struct {
	s    *sim.Simulator
	med  *medium.Medium
	dict *core.Dictionary
	k    [2]*kernel.Kernel
	r    [2]*Radio
	sink [2]*core.Collector
}

type zeroMeter struct{}

func (zeroMeter) ReadPulses() uint32 { return 0 }

// newRig builds two bare nodes with radios on channel 26.
func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	s := sim.New()
	rg := &rig{s: s, med: medium.New(s), dict: core.NewDictionary()}
	for i := 0; i < 2; i++ {
		id := core.NodeID(i + 1)
		k := kernel.New(s, id, rg.dict, kernel.Options{}, 11)
		sink := core.NewCollector()
		trk := core.NewTracker(core.Config{Node: id, Clock: k, Meter: zeroMeter{}, Cost: k, Sink: sink})
		k.Attach(trk)
		b := power.NewBoard(3.0, power.Calibrated(), k.NowTicks)
		trk.ListenPowerStates(b)
		rg.k[i] = k
		rg.sink[i] = sink
		rg.r[i] = New(k, rg.med, b, cfg)
	}
	return rg
}

func TestTurnOnSequence(t *testing.T) {
	rg := newRig(t, Config{Channel: 26})
	done := false
	rg.k[0].Boot(func() {
		rg.r[0].TurnOn(func() { done = true })
	})
	rg.s.Run(units.Second)
	if !done {
		t.Fatal("TurnOn completion never delivered")
	}
	if !rg.r[0].On() {
		t.Error("radio should be on")
	}
	// The power-state log must show regulator on before control idle.
	var regAt, ctlAt int = -1, -1
	for i, e := range rg.sink[0].Entries {
		if e.Type != core.EntryPowerState {
			continue
		}
		if e.Res == power.ResRadioReg && e.State() == power.RadioRegOn && regAt < 0 {
			regAt = i
		}
		if e.Res == power.ResRadioCtl && e.State() == power.RadioCtlIdle && ctlAt < 0 {
			ctlAt = i
		}
	}
	if regAt < 0 || ctlAt < 0 || regAt > ctlAt {
		t.Errorf("startup order wrong: reg@%d ctl@%d", regAt, ctlAt)
	}
}

func TestSendDeliversFrame(t *testing.T) {
	rg := newRig(t, Config{Channel: 26})
	var received *medium.Frame
	rg.r[1].OnReceive(func(f *medium.Frame) { received = f })

	rg.k[1].Boot(func() {
		rg.r[1].TurnOn(func() { rg.r[1].StartListening() })
	})
	sent := false
	rg.k[0].Boot(func() {
		rg.r[0].TurnOn(func() {
			f := &medium.Frame{Bytes: 24, Payload: "hello"}
			rg.r[0].Send(f, func() { sent = true })
		})
	})
	rg.s.Run(units.Second)
	if !sent {
		t.Fatal("sendDone never fired")
	}
	if received == nil {
		t.Fatal("frame not delivered")
	}
	if received.Payload != "hello" || received.Src != 1 {
		t.Errorf("frame = %+v", received)
	}
}

func TestSendPaintsTxPathWithCPUActivity(t *testing.T) {
	rg := newRig(t, Config{Channel: 26})
	act := rg.k[0].DefineActivity("App")
	var txLabelDuringSend core.Label
	rg.k[0].Boot(func() {
		rg.r[0].TurnOn(func() {
			rg.k[0].CPUAct.Set(act)
			rg.r[0].Send(&medium.Frame{Bytes: 16}, nil)
			txLabelDuringSend = rg.r[0].TxAct.Get()
			rg.k[0].CPUAct.SetIdle()
		})
	})
	rg.s.Run(units.Second)
	if txLabelDuringSend != act {
		t.Errorf("TxAct = %v during send, want %v (Figure 8)", txLabelDuringSend, act)
	}
	if got := rg.r[0].TxAct.Get(); !got.IsIdle() {
		t.Errorf("TxAct = %v after send, want idle", got)
	}
}

func TestTxPowerStateDuringTransmission(t *testing.T) {
	rg := newRig(t, Config{Channel: 26, TxPower: power.RadioTxM5dBm})
	rg.k[0].Boot(func() {
		rg.r[0].TurnOn(func() {
			rg.r[0].Send(&medium.Frame{Bytes: 16}, nil)
		})
	})
	rg.s.Run(units.Second)
	// The log must contain a TX power state at the configured level and a
	// return to off.
	var sawLevel, sawOff bool
	for _, e := range rg.sink[0].Entries {
		if e.Type == core.EntryPowerState && e.Res == power.ResRadioTx {
			if e.State() == power.RadioTxM5dBm {
				sawLevel = true
			}
			if sawLevel && e.State() == power.RadioTxOff {
				sawOff = true
			}
		}
	}
	if !sawLevel || !sawOff {
		t.Errorf("TX power states: level=%v off=%v", sawLevel, sawOff)
	}
}

func TestReceiverNotListeningIgnoresFrames(t *testing.T) {
	rg := newRig(t, Config{Channel: 26})
	got := 0
	rg.r[1].OnReceive(func(*medium.Frame) { got++ })
	// Radio 1 on but NOT listening.
	rg.k[1].Boot(func() { rg.r[1].TurnOn(nil) })
	rg.k[0].Boot(func() {
		rg.r[0].TurnOn(func() {
			rg.r[0].Send(&medium.Frame{Bytes: 16}, nil)
		})
	})
	rg.s.Run(units.Second)
	if got != 0 {
		t.Errorf("received %d frames while not listening", got)
	}
}

func TestChannelMismatchIgnored(t *testing.T) {
	rg := newRig(t, Config{Channel: 26})
	rg.r[1].SetChannel(17)
	got := 0
	rg.r[1].OnReceive(func(*medium.Frame) { got++ })
	rg.k[1].Boot(func() {
		rg.r[1].TurnOn(func() { rg.r[1].StartListening() })
	})
	rg.k[0].Boot(func() {
		rg.r[0].TurnOn(func() {
			rg.r[0].Send(&medium.Frame{Bytes: 16}, nil)
		})
	})
	rg.s.Run(units.Second)
	if got != 0 {
		t.Errorf("received %d frames on the wrong channel", got)
	}
}

func TestListeningTracksRxActivitySet(t *testing.T) {
	rg := newRig(t, Config{Channel: 26})
	act := rg.k[0].DefineActivity("Listener")
	rg.k[0].Boot(func() {
		rg.k[0].CPUAct.Set(act)
		rg.r[0].TurnOn(func() {
			rg.r[0].StartListening()
			if !rg.r[0].RxAct.Has(act) {
				t.Error("RxAct should contain the listening activity")
			}
			rg.r[0].StopListening()
			if rg.r[0].RxAct.Count() != 0 {
				t.Error("RxAct should be empty after StopListening")
			}
		})
		rg.k[0].CPUAct.SetIdle()
	})
	rg.s.Run(units.Second)
}

func TestCCASampleCleanAndBusy(t *testing.T) {
	rg := newRig(t, Config{Channel: 17})
	rg.med.AddWiFi(medium.NewWiFiSource(6, 500*units.Millisecond, units.Millisecond, 3))
	// That source is essentially always on; CCA must detect it on ch 17.
	var busy bool
	rg.k[0].Boot(func() {
		rg.r[0].TurnOn(func() {
			busy = rg.r[0].SampleCCA()
			rg.r[0].TurnOff()
		})
	})
	rg.s.Run(units.Second)
	if !busy {
		t.Error("CCA on overlapped channel with constant interference should report busy")
	}
	samples, positives := rg.r[0].CCAStats()
	if samples != 1 || positives != 1 {
		t.Errorf("stats = %d/%d", samples, positives)
	}
}

func TestTurnOffWhileListening(t *testing.T) {
	rg := newRig(t, Config{Channel: 26})
	rg.k[0].Boot(func() {
		rg.r[0].TurnOn(func() {
			rg.r[0].StartListening()
			rg.r[0].TurnOff()
		})
	})
	rg.s.Run(units.Second)
	if rg.r[0].On() {
		t.Error("radio still on")
	}
	// All sinks must be back at their zero states.
	for _, e := range []core.ResourceID{power.ResRadioReg, power.ResRadioCtl, power.ResRadioRx, power.ResRadioTx} {
		last := lastState(rg.sink[0].Entries, e)
		if last != 0 {
			t.Errorf("res %d final state = %d, want 0", e, last)
		}
	}
}

func lastState(entries []core.Entry, res core.ResourceID) core.PowerState {
	var st core.PowerState
	for _, e := range entries {
		if e.Type == core.EntryPowerState && e.Res == res {
			st = e.State()
		}
	}
	return st
}

func TestInterruptModeLogsPerChunkProxies(t *testing.T) {
	count := func(useDMA bool) (spi, dma int) {
		rg := newRig(t, Config{Channel: 26, UseDMA: useDMA})
		rg.k[0].Boot(func() {
			rg.r[0].TurnOn(func() {
				rg.r[0].Send(&medium.Frame{Bytes: 40}, nil)
			})
		})
		rg.s.Run(units.Second)
		var spiL, dmaL core.Label
		for l, name := range rg.dict.Activities {
			if l.Origin() != 1 {
				continue
			}
			switch name {
			case "int_UART0RX":
				spiL = l
			case "int_DACDMA":
				dmaL = l
			}
		}
		for _, e := range rg.sink[0].Entries {
			if e.Type != core.EntryActivitySet {
				continue
			}
			switch core.Label(e.Val) {
			case spiL:
				spi++
			case dmaL:
				dma++
			}
		}
		return spi, dma
	}
	spiN, dmaN := count(false)
	spiD, dmaD := count(true)
	// Interrupt mode: one proxy activation per 2-byte chunk (20 chunks for
	// 40 bytes). DMA mode: a single completion interrupt.
	if spiN < 18 {
		t.Errorf("interrupt mode logged %d SPI proxies, want ~20", spiN)
	}
	if dmaN != 0 {
		t.Errorf("interrupt mode logged %d DMA proxies", dmaN)
	}
	if dmaD != 1 {
		t.Errorf("DMA mode logged %d DMA proxies, want 1", dmaD)
	}
	if spiD != 0 {
		t.Errorf("DMA mode logged %d SPI proxies", spiD)
	}
}
