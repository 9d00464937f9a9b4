package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// TimelineRow is one resource's activity history clipped to a window, ready
// for rendering — the data behind the figures' per-resource color bands.
type TimelineRow struct {
	Res   core.ResourceID
	Name  string
	Spans []TimelineSpan
}

// TimelineSpan is one labeled stretch within a row.
type TimelineSpan struct {
	Start, End int64
	Text       string // rendered label ("1:Blue", "1:int_TIMERB0", "RX")
}

// ActivityRows extracts the activity timeline rows for the given resources
// over [t0, t1), using raw (unresolved) labels as the paper's figures do.
// Idle stretches are omitted.
func (a *Analysis) ActivityRows(resources []core.ResourceID, t0, t1 int64) []TimelineRow {
	var rows []TimelineRow
	for _, res := range resources {
		row := TimelineRow{Res: res, Name: a.Dict.ResourceName(res)}
		if int(res) < len(a.Single) {
			for _, s := range a.Single[res].Segs {
				lo, hi := max(s.Start, t0), min(s.End, t1)
				if hi <= lo || s.Label.IsIdle() {
					continue
				}
				row.Spans = append(row.Spans, TimelineSpan{lo, hi, a.Dict.LabelName(s.Label)})
			}
		}
		if int(res) < len(a.Multi) {
			for _, s := range a.Multi[res].Segs {
				lo, hi := max(s.Start, t0), min(s.End, t1)
				if hi <= lo || len(s.Labels) == 0 {
					continue
				}
				names := make([]string, len(s.Labels))
				for i, l := range s.Labels {
					names[i] = a.Dict.LabelName(l)
				}
				row.Spans = append(row.Spans, TimelineSpan{lo, hi, strings.Join(names, "+")})
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderGantt draws rows as an ASCII gantt chart of the given width — the
// textual equivalent of the activity band plots in Figures 11, 12, 15
// and 16. Each distinct span label gets a letter; the legend maps letters
// back to labels.
func RenderGantt(rows []TimelineRow, t0, t1 int64, width int) string {
	if width <= 0 {
		width = 100
	}
	if t1 <= t0 {
		return ""
	}
	letters := make(map[string]byte)
	var legend []string
	letterFor := func(text string) byte {
		if b, ok := letters[text]; ok {
			return b
		}
		b := byte('A' + len(letters)%26)
		if len(letters) >= 26 {
			b = byte('a' + (len(letters)-26)%26)
		}
		letters[text] = b
		legend = append(legend, fmt.Sprintf("  %c = %s", b, text))
		return b
	}

	var sb strings.Builder
	scale := float64(width) / float64(t1-t0)
	nameW := 0
	for _, r := range rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	for _, r := range rows {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		for _, s := range r.Spans {
			lo := int(float64(s.Start-t0) * scale)
			hi := int(float64(s.End-t0) * scale)
			if hi == lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			ch := letterFor(s.Text)
			for i := lo; i < hi && i >= 0; i++ {
				line[i] = ch
			}
		}
		fmt.Fprintf(&sb, "%-*s |%s|\n", nameW, r.Name, line)
	}
	sort.Strings(legend)
	sb.WriteString(strings.Join(legend, "\n"))
	sb.WriteByte('\n')
	return sb.String()
}
