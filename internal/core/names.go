package core

import "fmt"

// Dictionary maps the numeric identifiers appearing in log entries back to
// human-readable names. Resources are global to a platform; activity names
// are scoped to the node that defined the activity, so the merged,
// network-wide dictionary is keyed by (origin node, activity id).
type Dictionary struct {
	Resources  map[ResourceID]string
	Activities map[Label]string
	// proxies is a bitset over the 16-bit label space: the offline analysis
	// asks IsProxy up to twice per activity entry, so the lookup is one
	// word load rather than a map probe.
	proxies [1 << 16 / 64]uint64
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{
		Resources:  make(map[ResourceID]string),
		Activities: make(map[Label]string),
	}
}

// MarkProxy records that a label is a proxy activity (the static activity of
// an interrupt routine). The offline accounting uses this to decide which
// usage a bind entry reassigns.
func (d *Dictionary) MarkProxy(l Label) { d.proxies[l/64] |= 1 << (l % 64) }

// IsProxy reports whether l is a proxy activity.
func (d *Dictionary) IsProxy(l Label) bool { return d.proxies[l/64]&(1<<(l%64)) != 0 }

// Reset empties the dictionary, keeping the maps' storage, so it answers
// every lookup as NewDictionary's does.
func (d *Dictionary) Reset() {
	clear(d.Resources)
	clear(d.Activities)
	clear(d.proxies[:])
}

// NameResource registers a resource name.
func (d *Dictionary) NameResource(res ResourceID, name string) {
	d.Resources[res] = name
}

// NameActivity registers the name of activity id defined at node origin.
func (d *Dictionary) NameActivity(origin NodeID, id ActivityID, name string) {
	d.Activities[MkLabel(origin, id)] = name
}

// ResourceName returns the registered name, or a numeric fallback.
func (d *Dictionary) ResourceName(res ResourceID) string {
	if n, ok := d.Resources[res]; ok {
		return n
	}
	return fmt.Sprintf("res%d", res)
}

// LabelName renders a label as "origin:Name", the style used in the paper's
// figures ("1:Blue", "4:BounceApp", "1:int_TIMER").
func (d *Dictionary) LabelName(l Label) string {
	if n, ok := d.Activities[l]; ok {
		return fmt.Sprintf("%d:%s", l.Origin(), n)
	}
	if l.ID() == ActIdle {
		return fmt.Sprintf("%d:Idle", l.Origin())
	}
	if l.ID() == ActVTimer {
		return fmt.Sprintf("%d:VTimer", l.Origin())
	}
	return l.String()
}
