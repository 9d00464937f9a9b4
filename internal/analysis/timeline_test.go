package analysis

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func buildTimelineAnalysis(t *testing.T) (*Analysis, core.Label) {
	t.Helper()
	b := newTraceBuilder()
	b.draw(resA, 1, 2000)
	b.draw(0, 0, 500)
	b.states[0] = 0
	l1 := core.MkLabel(1, 2)
	idle := core.MkLabel(1, 0)
	b.ps(resA, 0)
	b.act(core.EntryActivitySet, resA, idle)
	b.advance(1_000_000)
	b.act(core.EntryActivitySet, resA, l1)
	b.ps(resA, 1)
	b.advance(2_000_000)
	b.ps(resA, 0)
	b.act(core.EntryActivitySet, resA, idle)
	b.advance(1_000_000)
	b.marker()
	dict := core.NewDictionary()
	dict.NameResource(resA, "DevA")
	dict.NameActivity(1, 2, "Busy")
	a, err := Analyze(b.trace(), dict, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a, l1
}

func TestActivityRowsClipAndSkipIdle(t *testing.T) {
	a, _ := buildTimelineAnalysis(t)
	rows := a.ActivityRows([]core.ResourceID{resA}, 0, a.Span())
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if len(rows[0].Spans) != 1 {
		t.Fatalf("spans = %+v, want just the busy span (idle omitted)", rows[0].Spans)
	}
	if rows[0].Name != "DevA" {
		t.Errorf("row name = %q", rows[0].Name)
	}
	sp := rows[0].Spans[0]
	if sp.Text != "1:Busy" {
		t.Errorf("span text = %q", sp.Text)
	}
	if sp.Start != 1_000_000 || sp.End != 3_000_000 {
		t.Errorf("span = [%d, %d), want [1000000, 3000000)", sp.Start, sp.End)
	}
	// Clipping: a window inside the busy period shortens the span.
	rows = a.ActivityRows([]core.ResourceID{resA}, 1_500_000, 2_500_000)
	sp = rows[0].Spans[0]
	if sp.Start != 1_500_000 || sp.End != 2_500_000 {
		t.Errorf("clipped span = %+v", sp)
	}
}

func TestRenderGantt(t *testing.T) {
	a, _ := buildTimelineAnalysis(t)
	rows := a.ActivityRows([]core.ResourceID{resA}, 0, a.Span())
	out := RenderGantt(rows, 0, a.Span(), 40)
	if !strings.Contains(out, "DevA") {
		t.Error("missing resource name")
	}
	if !strings.Contains(out, "A = 1:Busy") {
		t.Errorf("missing legend: %s", out)
	}
	// The busy half of the window must be marked, the rest dotted.
	line := strings.SplitN(out, "\n", 2)[0]
	if !strings.Contains(line, "A") || !strings.Contains(line, ".") {
		t.Errorf("gantt line = %q", line)
	}
}

func TestRenderGanttEmptyWindow(t *testing.T) {
	if RenderGantt(nil, 10, 10, 50) != "" {
		t.Error("empty window should render nothing")
	}
}

func TestRenderGanttManyLabels(t *testing.T) {
	// More than 26 distinct labels must not panic and must reuse
	// lowercase letters.
	var rows []TimelineRow
	row := TimelineRow{Res: 1, Name: "R"}
	for i := 0; i < 30; i++ {
		row.Spans = append(row.Spans, TimelineSpan{
			Start: int64(i * 10), End: int64(i*10 + 10),
			Text: strings.Repeat("x", i+1),
		})
	}
	rows = append(rows, row)
	out := RenderGantt(rows, 0, 300, 60)
	if out == "" {
		t.Error("empty render")
	}
}

func TestLabelsInUseSorted(t *testing.T) {
	a, l1 := buildTimelineAnalysis(t)
	labels := a.LabelsInUse()
	if len(labels) < 2 {
		t.Fatalf("labels = %v", labels)
	}
	for i := 1; i < len(labels); i++ {
		if labels[i] < labels[i-1] {
			t.Fatal("labels not sorted")
		}
	}
	found := false
	for _, l := range labels {
		if l == l1 {
			found = true
		}
	}
	if !found {
		t.Error("busy label missing")
	}
}
