package scenario

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/mote"
	"repro/internal/traffic"
)

// Instance is one constructed-but-not-yet-run scenario: a fresh isolated
// world plus the app wired into it. App holds the workload struct (for
// example *apps.Blink) so callers that need richer access than the compact
// Result — activity labels, app counters — can type assert it. A caller
// that wants the oscilloscope waveform attaches one with
// World.AttachScope between Build and Run.
type Instance struct {
	Spec  Spec
	World *mote.World
	App   any
	// Metrics, when non-nil, extracts the app's headline counters after the
	// run (wake-ups, packets delivered, false-positive rate, ...). They ride
	// into Result.Metrics and from there into cross-run aggregation.
	Metrics func() map[string]float64
	// Traffic, when the spec sets a traffic shape, is the recorder holding
	// the run's realized send schedule; write it out with WriteJSONL after
	// Run. Nil for an app's default schedule.
	Traffic *traffic.Recorder

	// net memoizes Network's retained per-node view.
	net *analysis.Network
}

// Run advances the instance's world for the spec's duration and stamps the
// trace end on every node, leaving the logs complete for analysis.
func (in *Instance) Run() {
	in.World.Run(in.Spec.Duration())
	in.World.StampEnd()
}

// BuildFunc constructs an app from a spec. Implementations must build a
// fresh world per call (no shared mutable state) so runs can execute
// concurrently.
type BuildFunc func(spec Spec) (*Instance, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]BuildFunc)
)

// Register installs an app constructor under a name. internal/apps registers
// the paper's workloads at init; external binaries can register their own
// before expanding specs that reference them. Registering a duplicate name
// panics: it is a wiring bug, not a runtime condition.
func Register(name string, fn BuildFunc) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || fn == nil {
		panic("scenario: Register with empty name or nil builder")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scenario: app %q registered twice", name))
	}
	registry[name] = fn
}

// Apps lists the registered app names, sorted.
func Apps() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	//quanto:ordered key collection is sorted below before returning
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Build validates the spec and constructs its app through the registry.
func Build(spec Spec) (*Instance, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	regMu.RLock()
	fn := registry[spec.App]
	regMu.RUnlock()
	if fn == nil {
		return nil, fmt.Errorf("scenario: unknown app %q (registered: %v)", spec.App, Apps())
	}
	in, err := fn(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario: build %q: %w", spec.App, err)
	}
	in.Spec = spec
	return in, nil
}
