package core

// BufferEntries is the size of the mote's log buffer: "a fixed buffer in RAM
// that holds 800 log entries" (Section 4.4, Table 4).
const BufferEntries = 800

const (
	// drainHighWater is the buffer fill that schedules a drain.
	drainHighWater = 64
	// drainCostPerEntry is the CPU cost, in cycles, of pushing one entry
	// over the back channel, charged to the drain's activity.
	drainCostPerEntry = 120
)

// DrainSink implements the paper's second logging mode (Section 4.4):
// entries collect in the mote's fixed RAM buffer and a low-priority task
// empties it over a back channel when the CPU would otherwise be idle.
// "Like the Unix top application, Quanto can account for its own logging in
// this mode as its own activity" — the drain work runs under a dedicated
// activity label so it appears in its own profile. For the paper's
// applications this mode used between 4 and 15% of the CPU.
//
// DrainSink is wired between the Tracker and the harness-side collector:
// Record buffers the entry, rejecting it when all BufferEntries slots are
// taken, and schedules the drain when the buffer reaches the high-water
// mark. The scheduling itself is delegated to the kernel via the Drainer
// interface to avoid an import cycle.
type DrainSink struct {
	buf   []Entry    // the RAM buffer, oldest entry first
	out   *Collector // where drained entries land (the "serial port")
	pump  Drainer
	label Label // the self-accounting activity ("Quanto")

	draining bool
	drained  uint64
	rounds   uint64
}

// Drainer schedules drain work: the kernel implements it by posting a task
// under the given label and charging the given cycles when it runs.
type Drainer interface {
	ScheduleDrain(label Label, cycles uint32, work func())
}

// NewDrainSink builds the continuous-logging pipeline: an empty RAM buffer
// drained into out by tasks that pump posts under label.
func NewDrainSink(out *Collector, pump Drainer, label Label) *DrainSink {
	return &DrainSink{
		buf:   make([]Entry, 0, BufferEntries),
		out:   out,
		pump:  pump,
		label: label,
	}
}

// Record implements Sink: it buffers e unless the buffer is full.
func (d *DrainSink) Record(e Entry) bool {
	ok := len(d.buf) < BufferEntries
	if ok {
		d.buf = append(d.buf, e)
	}
	if len(d.buf) >= drainHighWater && !d.draining {
		d.scheduleDrain()
	}
	return ok
}

func (d *DrainSink) scheduleDrain() {
	d.draining = true
	n := len(d.buf)
	cycles := uint32(n) * drainCostPerEntry
	d.pump.ScheduleDrain(d.label, cycles, func() {
		// Drain exactly the n entries the charged cycles paid for; entries
		// logged between scheduling and execution stay buffered for the
		// next round, keeping the self-accounting exact.
		d.drainN(n)
		d.drained += uint64(n)
		d.rounds++
		d.draining = false
		// Entries logged while draining may have refilled past the mark.
		if len(d.buf) >= drainHighWater {
			d.scheduleDrain()
		}
	})
}

// drainN moves the oldest n buffered entries to the output (everything, if
// fewer are buffered: a Flush may have emptied the buffer since the drain
// was budgeted).
func (d *DrainSink) drainN(n int) {
	n = min(n, len(d.buf))
	d.out.RecordBatch(d.buf[:n])
	d.buf = append(d.buf[:0], d.buf[n:]...)
}

// Flush force-drains the buffer synchronously into the output without
// charging CPU (used at the end of a run by the harness).
func (d *DrainSink) Flush() { d.drainN(len(d.buf)) }

// Drained returns how many entries left through the back channel and in how
// many rounds.
func (d *DrainSink) Drained() (entries, rounds uint64) { return d.drained, d.rounds }

// Buffered returns the number of entries waiting in RAM.
func (d *DrainSink) Buffered() int { return len(d.buf) }
