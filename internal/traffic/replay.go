package traffic

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
)

// TraceVersion is the record format version carried in the JSONL header
// line; bump it if the event schema ever changes incompatibly.
const TraceVersion = 1

// header is the first line of a recorded trace.
type header struct {
	QuantoTraffic int `json:"quanto_traffic"`
}

// Event is one recorded send: the world node id that sent and the simulated
// microsecond it sent at. Events serialize one per JSONL line, sorted by
// (at_us, node).
type Event struct {
	Node int   `json:"node"`
	AtUS int64 `json:"at_us"`
}

// Recorder captures a run's realized send schedule.
type Recorder struct {
	ids    []core.NodeID
	events []Event
}

// NewRecorder sizes a recorder for the given sender ids (slot i records
// sender ids[i]).
func NewRecorder(ids []core.NodeID) *Recorder {
	return &Recorder{ids: append([]core.NodeID(nil), ids...)}
}

// Hook returns slot's capture function; a nil recorder returns nil, which
// Drive treats as "do not record".
func (r *Recorder) Hook(slot int) func(units.Ticks) {
	if r == nil {
		return nil
	}
	node := int(r.ids[slot])
	return func(t units.Ticks) { r.events = append(r.events, Event{Node: node, AtUS: int64(t)}) }
}

// Events returns the recorded sends sorted by (at_us, node). A sender's
// times strictly increase, so the order is total.
func (r *Recorder) Events() []Event {
	out := append([]Event(nil), r.events...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].AtUS != out[j].AtUS {
			return out[i].AtUS < out[j].AtUS
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// WriteJSONL writes the recorded schedule: the version header line, then one
// event per line in (at_us, node) order. The output depends only on the
// run's content, so recording the same spec twice produces byte-identical
// files.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "{\"quanto_traffic\":%d}\n", TraceVersion); err != nil {
		return err
	}
	for _, e := range r.Events() {
		if _, err := fmt.Fprintf(bw, "{\"node\":%d,\"at_us\":%d}\n", e.Node, e.AtUS); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Trace is a parsed recorded schedule, ready to be replayed: per-node send
// ticks in recorded order. It implements Shape — the replay generator — by
// handing each sender the tick list of its node id.
type Trace struct {
	byNode map[int][]units.Ticks
	events int
}

// Events returns the total number of recorded sends.
func (tr *Trace) Events() int { return tr.events }

// Nodes returns the sender ids present in the trace, sorted.
func (tr *Trace) Nodes() []int {
	out := make([]int, 0, len(tr.byNode))
	//quanto:ordered key collection is sorted below before returning
	for id := range tr.byNode {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Source returns the replay schedule for node id: exactly the recorded
// ticks, in recorded order. Senders absent from the trace stay silent. The
// slot and rng are unused — a replay consumes no randomness, which is what
// keeps it byte-identical to the run that recorded it.
func (tr *Trace) Source(slot, id int, rng *sim.RNG) Source {
	return At(tr.byNode[id]...)
}

// maxTraceLine bounds one JSONL line; a well-formed event line is under 60
// bytes, so anything this long is garbage input, not a big schedule.
const maxTraceLine = 1 << 16

// ParseTrace reads a recorded schedule. It returns errors — never panics —
// on malformed input: bad JSON, wrong version, unknown fields, negative
// ids or times, or per-node times out of order (a recorded schedule is
// strictly increasing per sender; anything else cannot have come from the
// recorder). An empty input parses as an empty trace, which replays as
// silence.
func ParseTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4096), maxTraceLine)
	tr := &Trace{byNode: make(map[int][]units.Ticks)}
	line := 0
	sawHeader := false
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if !sawHeader {
			sawHeader = true
			var h header
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&h); err == nil && h.QuantoTraffic != 0 {
				if h.QuantoTraffic != TraceVersion {
					return nil, fmt.Errorf("traffic: trace version %d, this build reads %d", h.QuantoTraffic, TraceVersion)
				}
				continue
			}
			// Not a header: fall through and parse it as an event, so
			// headerless hand-built traces still load.
		}
		var e Event
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: %v", line, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("traffic: trace line %d: trailing data after event", line)
		}
		if e.Node < 0 || e.AtUS < 0 {
			return nil, fmt.Errorf("traffic: trace line %d: negative node or at_us", line)
		}
		ts := tr.byNode[e.Node]
		if len(ts) > 0 && units.Ticks(e.AtUS) <= ts[len(ts)-1] {
			return nil, fmt.Errorf("traffic: trace line %d: node %d times not strictly increasing", line, e.Node)
		}
		tr.byNode[e.Node] = append(ts, units.Ticks(e.AtUS))
		tr.events++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traffic: read trace: %v", err)
	}
	return tr, nil
}

// LoadTrace parses the recorded schedule at path.
func LoadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("traffic: %v", err)
	}
	defer f.Close()
	tr, err := ParseTrace(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, fmt.Errorf("traffic: %s: %v", path, err)
	}
	return tr, nil
}
