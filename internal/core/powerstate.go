package core

// PowerStateVar implements the paper's PowerState interface (Figure 1) for
// one energy sink. Device drivers signal hardware power-state changes
// through Set/SetBits; the generic component deduplicates idempotent calls
// ("multiple calls ... signaling the same state are idempotent") and only
// logs and notifies on real changes.
type PowerStateVar struct {
	res ResourceID
	cur PowerState
	trk *Tracker
}

// NewPowerStateVar registers an energy sink with the tracker, starting in
// state initial. The initial state is logged so offline analysis knows the
// starting vector.
func NewPowerStateVar(t *Tracker, res ResourceID, initial PowerState) *PowerStateVar {
	p := carve(&t.psvs, 16)
	*p = PowerStateVar{res: res, cur: initial, trk: t}
	t.Log(EntryPowerState, res, uint16(initial))
	return p
}

// Resource returns the sink this variable shadows.
func (p *PowerStateVar) Resource() ResourceID { return p.res }

// State returns the current power state.
func (p *PowerStateVar) State() PowerState { return p.cur }

// Set changes the power state to value. Idempotent sets do not log or
// notify.
func (p *PowerStateVar) Set(value PowerState) {
	if value == p.cur {
		return
	}
	old := p.cur
	p.cur = value
	p.trk.Log(EntryPowerState, p.res, uint16(value))
	p.trk.notifyPowerState(p.res, old, value)
}

// SetBits sets the bits selected by mask (shifted left by offset) to value,
// leaving the rest of the state untouched. Drivers for devices whose power
// state is a composite of independent fields use this form.
func (p *PowerStateVar) SetBits(mask PowerState, offset uint, value PowerState) {
	next := (p.cur &^ (mask << offset)) | ((value & mask) << offset)
	p.Set(next)
}
