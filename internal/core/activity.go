package core

import "fmt"

// SingleActivityDevice represents a hardware component that can only work on
// behalf of one activity at a time — the CPU, the transmit path of the
// radio, an LED (Figure 5 of the paper).
type SingleActivityDevice struct {
	res ResourceID
	cur Label
	trk *Tracker
}

// NewSingleActivityDevice registers a single-activity resource, initially
// idle. The initial label is logged.
func NewSingleActivityDevice(t *Tracker, res ResourceID) *SingleActivityDevice {
	d := carve(&t.sads, 8)
	*d = SingleActivityDevice{res: res, cur: t.IdleLabel(), trk: t}
	t.Log(EntryActivitySet, res, uint16(d.cur))
	return d
}

// Resource returns the device's resource id.
func (d *SingleActivityDevice) Resource() ResourceID { return d.res }

// Get returns the current activity label.
func (d *SingleActivityDevice) Get() Label { return d.cur }

// Set paints the device with newActivity. Idempotent sets do not log.
func (d *SingleActivityDevice) Set(newActivity Label) {
	if newActivity == d.cur {
		return
	}
	d.cur = newActivity
	d.trk.Log(EntryActivitySet, d.res, uint16(newActivity))
}

// SetIdle paints the device with the node's idle label.
func (d *SingleActivityDevice) SetIdle() { d.Set(d.trk.IdleLabel()) }

// Bind sets the current activity and indicates that the previous activity's
// resource usage — typically a proxy activity covering an interrupt — should
// be charged to the new one. The offline accounting walks the log backwards
// from a bind entry and reassigns the proxy's usage.
func (d *SingleActivityDevice) Bind(newActivity Label) {
	d.cur = newActivity
	d.trk.Log(EntryActivityBind, d.res, uint16(newActivity))
}

// MultiActivityDevice represents a hardware component that can work for
// several activities simultaneously — hardware timers, or the radio receive
// circuitry while listening (Figure 6 of the paper).
type MultiActivityDevice struct {
	res ResourceID
	// set holds the current labels as a small slice: the set has a handful
	// of entries at most, so a linear scan beats a map and membership churn
	// (radio listen/unlisten on every node) reuses the slice's capacity
	// instead of allocating.
	set []Label
	trk *Tracker
}

// NewMultiActivityDevice registers a multi-activity resource with an empty
// activity set.
func NewMultiActivityDevice(t *Tracker, res ResourceID) *MultiActivityDevice {
	return &MultiActivityDevice{res: res, set: make([]Label, 0, 4), trk: t}
}

// index returns the position of activity in the set, or -1.
func (d *MultiActivityDevice) index(activity Label) int {
	for i, l := range d.set {
		if l == activity {
			return i
		}
	}
	return -1
}

// Resource returns the device's resource id.
func (d *MultiActivityDevice) Resource() ResourceID { return d.res }

// Add inserts activity into the device's current set. Adding a label that is
// already present is an error, mirroring the error_t return in the paper's
// interface.
func (d *MultiActivityDevice) Add(activity Label) error {
	if d.index(activity) >= 0 {
		return fmt.Errorf("core: activity %v already on resource %d", activity, d.res)
	}
	d.set = append(d.set, activity)
	d.trk.Log(EntryActivityAdd, d.res, uint16(activity))
	return nil
}

// Remove deletes activity from the device's current set.
func (d *MultiActivityDevice) Remove(activity Label) error {
	i := d.index(activity)
	if i < 0 {
		return fmt.Errorf("core: activity %v not on resource %d", activity, d.res)
	}
	d.set = append(d.set[:i], d.set[i+1:]...)
	d.trk.Log(EntryActivityRemove, d.res, uint16(activity))
	return nil
}

// Has reports whether activity is in the current set.
func (d *MultiActivityDevice) Has(activity Label) bool {
	return d.index(activity) >= 0
}

// Count returns the size of the current activity set.
func (d *MultiActivityDevice) Count() int { return len(d.set) }
