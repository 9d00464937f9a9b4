package core

import "fmt"

// EntryType discriminates the kinds of events Quanto logs. The paper's
// entry_t uses a type byte with a union holding either an activity label or
// a power state; the reproduction keeps the exact 12-byte layout.
type EntryType uint8

// Log entry types.
const (
	// EntryPowerState records that resource Res changed to power state Val.
	EntryPowerState EntryType = 1
	// EntryActivitySet records that single-activity resource Res is now
	// working on behalf of the activity labeled Val.
	EntryActivitySet EntryType = 2
	// EntryActivityBind records that the resource's previous activity (a
	// proxy) should be charged to the activity labeled Val, and that the
	// resource is now working for Val.
	EntryActivityBind EntryType = 3
	// EntryActivityAdd records that multi-activity resource Res added the
	// activity labeled Val to its current set.
	EntryActivityAdd EntryType = 4
	// EntryActivityRemove records that multi-activity resource Res removed
	// the activity labeled Val from its current set.
	EntryActivityRemove EntryType = 5
	// EntryMarker is a free-form annotation used by applications and the
	// experiment harnesses (value is application-defined). Markers take part
	// in interval splitting but not in attribution.
	EntryMarker EntryType = 6
)

// String returns a short mnemonic for the entry type.
func (t EntryType) String() string {
	switch t {
	case EntryPowerState:
		return "ps"
	case EntryActivitySet:
		return "act"
	case EntryActivityBind:
		return "bind"
	case EntryActivityAdd:
		return "add"
	case EntryActivityRemove:
		return "rem"
	case EntryMarker:
		return "mark"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Entry is one log record. Encoded (internal/trace) it occupies exactly 12
// bytes, matching Figure 17 of the paper:
//
//	typedef struct entry_t {
//	    uint8_t  type;   // type of the entry
//	    uint8_t  res_id; // hardware resource for entry
//	    uint32_t time;   // local time of the node
//	    uint32_t ic;     // icount: cumulative energy
//	    union { uint16_t act; uint16_t powerstate; };
//	} entry_t;
//
// In memory the fields run widest first, so the struct needs no padding and
// also takes EntrySize bytes: every log, every analyzer batch and every
// merged trace.Stamped holds entries at their wire size. The codec encodes
// field by field in the wire order above, so the layout here never reaches
// a trace file.
type Entry struct {
	Time uint32     // node-local time in microseconds (wraps after ~71.6 min)
	IC   uint32     // cumulative iCount pulses at the time of the event
	Val  uint16     // activity label or power state, per Type
	Type EntryType  // kind of event
	Res  ResourceID // hardware resource the event concerns
}

// EntrySize is the encoded size of an Entry in bytes (Table 4: "Sample Size
// 12 bytes").
const EntrySize = 12

// Label interprets Val as an activity label. Only meaningful for the
// activity entry types.
func (e Entry) Label() Label { return Label(e.Val) }

// State interprets Val as a power state. Only meaningful for
// EntryPowerState.
func (e Entry) State() PowerState { return PowerState(e.Val) }

// String renders the entry for debugging.
func (e Entry) String() string {
	return fmt.Sprintf("{%s res=%d t=%dus ic=%d val=%d}", e.Type, e.Res, e.Time, e.IC, e.Val)
}
