package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/units"
)

// Figure12 reproduces the Bounce cross-node activity tracking figure: on
// node 1, (a) a two-second window showing work attributed to both
// 1:BounceApp and 4:BounceApp, (b) the detail of a packet reception (SFD
// proxy, bus-transfer proxies, then the bind to the remote activity), and
// (c) the detail of a transmission performed as part of the remote
// activity.
func Figure12(seed uint64) (*Report, error) {
	r := newReport("fig12", "Bounce: activities spanning nodes (node 1's view)")
	in, err := runScenario(scenario.Spec{App: "bounce", Seed: seed, DurationUS: int64(4 * units.Second)})
	if err != nil {
		return nil, err
	}
	b := in.App.(*apps.Bounce)
	w := b.World
	n := b.Nodes[0]
	a, err := analyzeNode(w, n)
	if err != nil {
		return nil, err
	}

	resources := []core.ResourceID{power.ResCPU, power.ResRadioRx, power.ResRadioTx, power.ResLED1, power.ResLED2}

	var sb strings.Builder
	sb.WriteString("(a) 2 s window of node 1's activities:\n")
	lo, hi := int64(1*units.Second), int64(3*units.Second)
	sb.WriteString(analysis.RenderGantt(a.ActivityRows(resources, lo, hi), lo, hi, 96))

	// (b) Reception detail: find a bind on the CPU to a node-4 label and
	// open a window around the proxy episode that precedes it.
	remoteActs := b.Activities()
	remote := remoteActs[1]
	var bindAt int64 = -1
	var uw trace.Unwrapper
	for _, e := range n.Log.Entries {
		at, err := uw.At(e.Time)
		if err != nil {
			return nil, err
		}
		if e.Type == core.EntryActivityBind && e.Res == power.ResCPU && core.Label(e.Val) == remote {
			bindAt = at
			break
		}
	}
	if bindAt >= 0 {
		blo, bhi := bindAt-int64(14*units.Millisecond), bindAt+int64(2*units.Millisecond)
		sb.WriteString("\n(b) Packet reception detail (activity label from node 4):\n")
		sb.WriteString(analysis.RenderGantt(a.ActivityRows(resources, blo, bhi), blo, bhi, 96))
		r.Values["reception_bind_found"] = 1
	} else {
		r.Values["reception_bind_found"] = 0
	}

	// (c) Transmission detail: find a TX window whose radio activity is the
	// remote label (node 1 transmitting on behalf of node 4's activity).
	var txlo, txhi int64 = -1, -1
	if int(power.ResRadioTx) < len(a.Single) {
		for _, seg := range a.Single[power.ResRadioTx].Segs {
			if seg.Label == remote {
				txlo, txhi = seg.Start-int64(2*units.Millisecond), seg.End+int64(4*units.Millisecond)
				break
			}
		}
	}
	if txlo >= 0 {
		sb.WriteString("\n(c) Packet transmission as part of node 4's activity:\n")
		sb.WriteString(analysis.RenderGantt(a.ActivityRows(resources, txlo, txhi), txlo, txhi, 96))
		r.Values["remote_tx_found"] = 1
	} else {
		r.Values["remote_tx_found"] = 0
	}

	// Cross-node accounting summary.
	times := a.TimeByActivity()
	cpuRemote := float64(times[power.ResCPU][remote]) / 1e3
	led1Remote := float64(times[power.ResLED1][remote]) / 1e3
	fmt.Fprintf(&sb, "\nNode 1 worked %.2f ms of CPU time and lit LED1 %.2f ms on behalf of 4:BounceApp.\n",
		cpuRemote, led1Remote)
	recv, sent := b.Stats()
	fmt.Fprintf(&sb, "Packets: node1 rx=%d tx=%d; node4 rx=%d tx=%d\n", recv[0], sent[0], recv[1], sent[1])

	r.Text = sb.String()
	r.Values["cpu_ms_for_remote"] = cpuRemote
	r.Values["led1_ms_for_remote"] = led1Remote
	r.Values["node1_rx"] = float64(recv[0])
	r.Values["node1_tx"] = float64(sent[0])
	return r, nil
}
