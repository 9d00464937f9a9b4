package repro

// The root package's benchmarks and tests build runs by app name through
// the scenario registry, which internal/apps fills when it loads.
import _ "repro/internal/apps"
