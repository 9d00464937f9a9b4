package apps

import (
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/units"
)

func TestBouncePacketsCirculate(t *testing.T) {
	b := mustNew(t, NewBounce, scenario.Spec{Seed: 3})
	b.Run(4 * units.Second)
	recv, sent := b.Stats()
	if recv[0] < 3 || recv[1] < 3 {
		t.Errorf("received = %v, want several packets per node", recv)
	}
	if sent[0] < 3 || sent[1] < 3 {
		t.Errorf("sent = %v, want several packets per node", sent)
	}
}

func TestBounceCrossNodeActivity(t *testing.T) {
	b := mustNew(t, NewBounce, scenario.Spec{Seed: 3})
	b.Run(4 * units.Second)

	// Node A (id 1) must have spent CPU time under node B's (id 4)
	// BounceApp activity: the essence of cross-node tracking.
	nodeA := b.Nodes[0]
	acts := b.Activities()
	remote := acts[1]
	if remote.Origin() != 4 {
		t.Fatalf("expected node B's activity to originate at 4, got %v", remote)
	}
	a := analyzeNodes(t, b.World, nodeA).Nodes[nodeA.ID]
	times := a.TimeByActivity()
	cpu := times[power.ResCPU]
	if cpu[remote] <= 0 {
		t.Errorf("node 1 CPU time under 4:BounceApp = %d us, want > 0", cpu[remote])
	}
	// LED1 lights only while holding the remote packet, so its time under
	// the remote activity should be substantial.
	led1 := times[power.ResLED1]
	if led1[remote] < int64(100*units.Millisecond) {
		t.Errorf("node 1 LED1 time under 4:BounceApp = %d us, want >= 100ms", led1[remote])
	}
}

func TestBounceHiddenFieldCarriesLabel(t *testing.T) {
	b := mustNew(t, NewBounce, scenario.Spec{Seed: 9})
	b.Run(2 * units.Second)
	// Bind entries on node 1's CPU must reference node 4's activity.
	nodeA := b.Nodes[0]
	var sawRemoteBind bool
	for _, e := range nodeA.Log.Entries {
		if e.Type == core.EntryActivityBind && core.Label(e.Val).Origin() == 4 {
			sawRemoteBind = true
			break
		}
	}
	if !sawRemoteBind {
		t.Error("no bind to a node-4 activity found on node 1; the hidden AM field is not propagating")
	}
}

func TestBounceDeterminism(t *testing.T) {
	b1 := mustNew(t, NewBounce, scenario.Spec{Seed: 5})
	b1.Run(2 * units.Second)
	b2 := mustNew(t, NewBounce, scenario.Spec{Seed: 5})
	b2.Run(2 * units.Second)
	a := b1.Nodes[0].Log.Entries
	bb := b2.Nodes[0].Log.Entries
	if len(a) != len(bb) {
		t.Fatalf("entry counts differ: %d vs %d", len(a), len(bb))
	}
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("entry %d differs: %v vs %v", i, a[i], bb[i])
		}
	}
}
