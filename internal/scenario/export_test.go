package scenario

import (
	"repro/internal/core"
	"repro/internal/mote"
)

// Worker exposes a Runner worker to the external tests, which need the
// apps that internal/apps registers (and internal/apps imports this
// package).
type Worker = worker

// NewWorker returns a fresh worker, as each Runner goroutine starts with.
func NewWorker() *Worker { return newWorker() }

// Run runs one spec as a Runner goroutine does.
func (wk *worker) Run(spec Spec) *Result { return wk.run(spec) }

// Logs returns the worker's log buffers, by node position.
func (wk *worker) Logs() [][]core.Entry { return wk.logs }

// World returns the world the worker resets and builds every run into.
func (wk *worker) World() *mote.World { return wk.world }
