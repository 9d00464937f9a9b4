package mote

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/units"
)

// addBatteryBlinker assembles a node with a finite battery that toggles an
// LED periodically — enough draw variation to exercise the battery's
// event-driven integration.
func addBatteryBlinker(w *World, id core.NodeID, uah float64, h power.Harvester) *Node {
	opts := DefaultOptions()
	opts.BatteryUAH = uah
	opts.Harvester = h
	n := w.AddNode(id, opts)
	n.K.Boot(func() {
		tm := n.K.NewTimer(func() { n.LEDs.Toggle(0) })
		tm.StartPeriodic(100 * units.Millisecond)
	})
	return n
}

func TestNodeDiesWhenBatteryDepletes(t *testing.T) {
	w := NewWorld(1)
	// ~1.3 mA average draw (baseline + half-duty red LED): 2 uAh = 7200 uC
	// lasts a handful of seconds.
	n := addBatteryBlinker(w, 1, 2, nil)
	w.Run(60 * units.Second)
	w.StampEnd()

	diedAt, died := n.DiedAt()
	if !died || n.Alive() {
		t.Fatalf("node should have died: alive=%v", n.Alive())
	}
	if diedAt <= 0 || diedAt >= 60*units.Second {
		t.Fatalf("implausible death time %v", diedAt)
	}
	if len(w.Deaths) != 1 || w.Deaths[0].Node != 1 || w.Deaths[0].At != diedAt {
		t.Fatalf("world deaths = %+v", w.Deaths)
	}
	if !n.Battery.Depleted() || n.Battery.MarginFrac() != 0 {
		t.Fatalf("battery state: depleted=%v margin=%v", n.Battery.Depleted(), n.Battery.MarginFrac())
	}

	// The death marker must be the final log entry.
	entries := n.Log.Entries
	if len(entries) == 0 {
		t.Fatal("no log entries")
	}
	last := entries[len(entries)-1]
	if last.Type != core.EntryMarker || last.Val != DeathMarker {
		t.Fatalf("last entry = %v (val %#x), want death marker", last.Type, last.Val)
	}
	for _, e := range entries {
		if int64(e.Time) > int64(last.Time) {
			t.Fatalf("entry at %d after death stamp %d", e.Time, last.Time)
		}
	}
}

func TestDeadNodeStopsConsumingEnergy(t *testing.T) {
	w := NewWorld(1)
	n := addBatteryBlinker(w, 1, 2, nil)
	w.Run(60 * units.Second)
	atDeath := n.Meter.EnergyMicroJoules()
	w.Run(120 * units.Second)
	if after := n.Meter.EnergyMicroJoules(); after != atDeath {
		t.Fatalf("meter advanced after death: %v -> %v", atDeath, after)
	}
	if n.Board.Current() != 0 || !n.Board.Dead() {
		t.Fatalf("board still drawing %v", n.Board.Current())
	}
	if !n.K.Dead() {
		t.Fatal("kernel should be dead")
	}
}

func TestHarvesterPostponesDeath(t *testing.T) {
	run := func(h power.Harvester) units.Ticks {
		w := NewWorld(1)
		n := addBatteryBlinker(w, 1, 2, h)
		w.Run(120 * units.Second)
		at, died := n.DiedAt()
		if !died {
			return -1
		}
		return at
	}
	plain := run(nil)
	helped := run(power.ConstantHarvester(600))
	if plain <= 0 {
		t.Fatal("unharvested node should die")
	}
	if helped > 0 && helped <= plain {
		t.Fatalf("harvesting died no later: plain %v, harvested %v", plain, helped)
	}
}

func TestHaltWorldOnDeathStopsSimulation(t *testing.T) {
	w := NewWorld(1)
	opts := DefaultOptions()
	opts.BatteryUAH = 1
	opts.HaltWorldOnDeath = true
	n := w.AddNode(1, opts)
	n.K.Boot(func() {
		tm := n.K.NewTimer(func() { n.LEDs.Toggle(0) })
		tm.StartPeriodic(100 * units.Millisecond)
	})
	w.Run(600 * units.Second)
	diedAt, died := n.DiedAt()
	if !died {
		t.Fatal("node did not die")
	}
	if now := w.Sim.Now(); now != diedAt {
		t.Fatalf("simulation ran past the halt-world death: now %v, died %v", now, diedAt)
	}
}

func TestInfiniteBatteryUnchanged(t *testing.T) {
	w := NewWorld(1)
	n := w.AddNode(1, DefaultOptions())
	if n.Battery != nil {
		t.Fatal("default node should have no battery")
	}
	w.Run(10 * units.Second)
	w.StampEnd()
	if !n.Alive() {
		t.Fatal("infinite-supply node died")
	}
}

func TestDeathIsDeterministic(t *testing.T) {
	run := func() units.Ticks {
		w := NewWorld(7)
		n := addBatteryBlinker(w, 1, 2, power.PeriodicHarvester{
			UA: 900, Period: 700 * units.Millisecond, On: 200 * units.Millisecond,
		})
		w.Run(300 * units.Second)
		at, died := n.DiedAt()
		if !died {
			t.Fatal("node did not die")
		}
		return at
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("death time differs across identical runs: %v vs %v", a, b)
	}
}

// TestWorldResetMatchesNew: a world reset after a run in which a node died
// under halt-world, with a death subscriber, holds no node, name, death or
// subscriber of that run, and runs the next one as NewWorld does: the same
// log, death and dictionary.
func TestWorldResetMatchesNew(t *testing.T) {
	// run builds two battery blinkers into w, both of which die, and
	// returns their logs and the world's deaths.
	run := func(w *World) ([][]core.Entry, []Death) {
		addBatteryBlinker(w, 3, 2, nil)
		addBatteryBlinker(w, 5, 4, nil)
		w.Run(60 * units.Second)
		w.StampEnd()
		return [][]core.Entry{w.Nodes[0].Log.Entries, w.Nodes[1].Log.Entries}, w.Deaths
	}

	w := NewWorld(1)
	opts := DefaultOptions()
	opts.BatteryUAH, opts.HaltWorldOnDeath = 1, true
	w.AddNode(9, opts)
	w.Dict.MarkProxy(core.MkLabel(3, 1))
	stale := 0
	w.SubscribeDeath(func(*Node, units.Ticks) { stale++ })
	w.Run(60 * units.Second)
	if len(w.Deaths) != 1 || stale != 1 {
		t.Fatalf("set-up: %d deaths seen by %d subscriber calls, want 1 and 1", len(w.Deaths), stale)
	}

	w.Reset(2)
	if len(w.Nodes) != 0 || w.Node(9) != nil || len(w.Deaths) != 0 || w.Sim.Now() != 0 || w.Sim.Pending() != 0 {
		t.Fatalf("after Reset: %d nodes, node 9 %v, %d deaths, now %d, %d pending",
			len(w.Nodes), w.Node(9), len(w.Deaths), w.Sim.Now(), w.Sim.Pending())
	}
	gotLogs, gotDeaths := run(w)
	fresh := NewWorld(2)
	wantLogs, wantDeaths := run(fresh)
	if len(wantDeaths) != 2 || stale != 1 {
		t.Errorf("%d deaths in the new world, want 2; the previous run's subscriber fired %d more times",
			len(wantDeaths), stale-1)
	}
	if !slices.Equal(gotDeaths, wantDeaths) {
		t.Errorf("reset world's deaths %v, new world's %v", gotDeaths, wantDeaths)
	}
	for i := range wantLogs {
		if !slices.Equal(gotLogs[i], wantLogs[i]) {
			t.Errorf("node position %d: reset world logged %d entries unlike a new world's %d",
				i, len(gotLogs[i]), len(wantLogs[i]))
		}
	}
	if !maps.Equal(w.Dict.Resources, fresh.Dict.Resources) || !maps.Equal(w.Dict.Activities, fresh.Dict.Activities) {
		t.Errorf("reset world's names differ from a new world's")
	}
	if w.Dict.IsProxy(core.MkLabel(3, 1)) != fresh.Dict.IsProxy(core.MkLabel(3, 1)) {
		t.Errorf("reset world kept the previous run's proxy mark")
	}
}
