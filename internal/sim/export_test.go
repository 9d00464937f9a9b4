package sim

// UseHeap makes New build the reference heap queue until restore is called.
// It lets the external differential tests run whole scenarios on the heap;
// callers must not build simulators concurrently while it is in effect.
func UseHeap() (restore func()) {
	oracle = func() queue { return newHeapQueue() }
	return func() { oracle = nil }
}
