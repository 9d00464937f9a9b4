package radio

import (
	"testing"

	"repro/internal/medium"
	"repro/internal/power"
	"repro/internal/units"
)

func TestCCARestoresListeningState(t *testing.T) {
	rg := newRig(t, Config{Channel: 26})
	rg.k[0].Boot(func() {
		rg.r[0].TurnOn(func() {
			rg.r[0].StartListening()
			_ = rg.r[0].SampleCCA()
			// Still listening afterwards.
			if got := lastState(rg.sink[0].Entries, power.ResRadioRx); got != power.RadioRxListen {
				t.Errorf("rx state after CCA while listening = %v", got)
			}
			rg.r[0].StopListening()
			_ = rg.r[0].SampleCCA()
			if got := lastState(rg.sink[0].Entries, power.ResRadioRx); got != power.RadioRxOff {
				t.Errorf("rx state after CCA while idle = %v", got)
			}
		})
	})
	rg.s.Run(units.Second)
}

func TestTurnOnTwiceIsIdempotent(t *testing.T) {
	rg := newRig(t, Config{Channel: 26})
	calls := 0
	rg.k[0].Boot(func() {
		rg.r[0].TurnOn(func() {
			calls++
			rg.r[0].TurnOn(func() { calls++ }) // already on: immediate
		})
	})
	rg.s.Run(units.Second)
	if calls != 2 {
		t.Errorf("done callbacks = %d, want 2", calls)
	}
}

func TestSendWhileOffPanics(t *testing.T) {
	rg := newRig(t, Config{Channel: 26})
	recovered := false
	rg.k[0].Boot(func() {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		rg.r[0].Send(&medium.Frame{Bytes: 8}, nil)
	})
	rg.s.Run(units.Second)
	if !recovered {
		t.Error("send while off should panic")
	}
}

func TestListenWhileOffPanics(t *testing.T) {
	rg := newRig(t, Config{Channel: 26})
	recovered := false
	rg.k[0].Boot(func() {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		rg.r[0].StartListening()
	})
	rg.s.Run(units.Second)
	if !recovered {
		t.Error("listen while off should panic")
	}
}

func TestStopListeningMidFrameLosesIt(t *testing.T) {
	rg := newRig(t, Config{Channel: 26})
	got := 0
	rg.r[1].OnReceive(func(*medium.Frame) { got++ })
	rg.k[1].Boot(func() {
		rg.r[1].TurnOn(func() {
			rg.r[1].StartListening()
			// Shut the receiver off shortly after the frame starts
			// arriving (the sender begins ~2-4 ms in due to startup and
			// backoff; the frame lasts ~1 ms on the air).
			tm := rg.k[1].NewTimer(func() { rg.r[1].TurnOff() })
			tm.StartOneShot(4500)
		})
	})
	rg.k[0].Boot(func() {
		rg.r[0].TurnOn(func() {
			rg.r[0].Send(&medium.Frame{Bytes: 60}, nil)
		})
	})
	rg.s.Run(units.Second)
	if got != 0 {
		t.Errorf("received %d frames despite receiver shutdown mid-frame", got)
	}
}

func TestBackoffVariesWithSeed(t *testing.T) {
	timings := make(map[units.Ticks]bool)
	for seed := uint64(1); seed <= 4; seed++ {
		rg := newRig(t, Config{Channel: 26})
		// Re-seed the node's RNG stream by raising distinct numbers of
		// random draws before sending.
		for i := uint64(0); i < seed; i++ {
			rg.k[0].RNG().Uint64()
		}
		var doneAt units.Ticks
		rg.k[0].Boot(func() {
			rg.r[0].TurnOn(func() {
				rg.r[0].Send(&medium.Frame{Bytes: 16}, func() {
					doneAt = rg.k[0].NowTicks()
				})
			})
		})
		rg.s.Run(units.Second)
		timings[doneAt] = true
	}
	if len(timings) < 2 {
		t.Error("backoff shows no variation across RNG states")
	}
}

// TestOverlappingDrainsDeliverEachFrame: every 2-byte chunk of a drain
// waits behind the CPU, so a drain runs about three times a frame's
// airtime, and a short frame sent right after a long one lands while the
// long one is still draining. The two drains interleave on one bus
// interrupt, and each must carry its own frame to the link layer once: the
// short one first, since it has fewer chunks to move.
func TestOverlappingDrainsDeliverEachFrame(t *testing.T) {
	rg := newRig(t, Config{Channel: 26})
	var got []any
	var longDelivered units.Ticks
	rg.r[1].OnReceive(func(f *medium.Frame) {
		if f == nil {
			got = append(got, nil)
			return
		}
		if f.Payload == "long" {
			longDelivered = rg.k[1].NowTicks()
		}
		got = append(got, f.Payload)
	})
	rg.k[1].Boot(func() {
		rg.r[1].TurnOn(func() { rg.r[1].StartListening() })
	})
	var shortEnd units.Ticks
	rg.k[0].Boot(func() {
		rg.r[0].TurnOn(func() {
			rg.r[0].Send(&medium.Frame{Bytes: 60, Payload: "long"}, func() {
				short := &medium.Frame{Bytes: 4, Payload: "short"}
				rg.r[0].Send(short, func() { shortEnd = short.SentAt + short.Airtime })
			})
		})
	})
	rg.s.Run(units.Second)
	if len(got) != 2 || got[0] != "short" || got[1] != "long" {
		t.Fatalf("delivered %v, want [short long]", got)
	}
	if longDelivered <= shortEnd {
		t.Errorf("the long frame was delivered at %v, before the short one ended at %v: the drains did not overlap",
			longDelivered, shortEnd)
	}
}
