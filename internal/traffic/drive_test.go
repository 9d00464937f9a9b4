package traffic

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mote"
	"repro/internal/units"
)

// TestDriveRestoresArmedActivity pins Drive's two timing rules: ticks at or
// before arm time never fire, and every fire restores the activity Drive was
// armed under, even though each send switches the CPU to another activity.
func TestDriveRestoresArmedActivity(t *testing.T) {
	w := mote.NewWorld(1)
	k := w.AddNode(1, mote.DefaultOptions()).K
	armed := k.DefineActivity("Armed")
	other := k.DefineActivity("Other")
	var want, fired []units.Ticks
	var restored []core.Label
	k.Boot(func() {
		k.CPUAct.Set(armed)
		now := k.NowTicks()
		want = []units.Ticks{now + 1000, now + 2000, now + 3000}
		src := At(0, now, want[0], want[1], want[2])
		Drive(k, src, func(at units.Ticks) { fired = append(fired, at) }, func() {
			restored = append(restored, k.CPUAct.Get())
			k.CPUAct.Set(other)
		})
		k.CPUAct.SetIdle()
	})
	w.Run(units.Second)
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("fire %d at %d, want %d", i, fired[i], want[i])
		}
		if restored[i] != armed {
			t.Errorf("fire %d restored %v, want the armed activity %v", i, restored[i], armed)
		}
	}
}

// TestEvery pins the fixed-period schedule.
func TestEvery(t *testing.T) {
	got := drain(Every(7, 10), 4, math.MaxInt64)
	want := []units.Ticks{7, 17, 27, 37}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Every(7, 10) = %v, want %v", got, want)
		}
	}
}
