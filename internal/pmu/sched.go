package pmu

// Scheduler event classes. Unlike the counter events in events.go, which
// are sampled aggregates, scheduler events are discrete timestamped
// records: a thread started running on a hart, blocked on a lock, and so
// on. They are what a wait-for graph (wPerf) is built from, and they are
// the raw material for partitioning wall time into on-CPU and off-CPU.

// SchedClass identifies one scheduler event class.
type SchedClass uint8

const (
	// SchedSwitchIn: the thread started running on a hart.
	SchedSwitchIn SchedClass = iota
	// SchedSwitchOut: the thread stopped running (blocked or preempted).
	SchedSwitchOut
	// SchedWakeup: the thread became runnable; Waker is the thread that
	// made it runnable, if known.
	SchedWakeup
	// SchedBlockLock: the thread blocked acquiring lock Obj.
	SchedBlockLock
	// SchedUnblockLock: lock Obj was handed to the thread; Waker is the
	// releasing holder.
	SchedUnblockLock
	// SchedBlockIO: the thread blocked waiting for I/O on device Obj.
	SchedBlockIO
	// SchedUnblockIO: the I/O on device Obj completed.
	SchedUnblockIO

	// NumSchedClasses is the number of known scheduler event classes.
	NumSchedClasses
)

// schedClassNames is indexed by SchedClass. The "sched." prefix is the
// namespace that separates scheduler rows from counter rows in perf-CSV
// streams (ingest keys off it).
var schedClassNames = [NumSchedClasses]string{
	SchedSwitchIn:    "sched.switch_in",
	SchedSwitchOut:   "sched.switch_out",
	SchedWakeup:      "sched.wakeup",
	SchedBlockLock:   "sched.block_lock",
	SchedUnblockLock: "sched.unblock_lock",
	SchedBlockIO:     "sched.block_io",
	SchedUnblockIO:   "sched.unblock_io",
}

// Name returns the canonical "sched.*" name for the class, or "" for an
// out-of-range value.
func (c SchedClass) Name() string {
	if c >= NumSchedClasses {
		return ""
	}
	return schedClassNames[c]
}

// String implements fmt.Stringer.
func (c SchedClass) String() string { return c.Name() }

// LookupSchedClass resolves a canonical "sched.*" name to its class.
func LookupSchedClass(name string) (SchedClass, bool) {
	for c, n := range schedClassNames {
		if n == name {
			return SchedClass(c), true
		}
	}
	return 0, false
}

// SchedEvent is one scheduler event as recorded by the simulator.
// Cycle is the simulation time; Thread and Hart identify who and where;
// Obj names the lock or device for block/unblock classes; Waker is the
// thread responsible for making this one runnable (-1 when not
// applicable). This is the in-memory form — core.SchedEvent is the
// serialized form with the class spelled by name.
type SchedEvent struct {
	Cycle  uint64
	Class  SchedClass
	Thread int
	Hart   int
	Obj    string
	Waker  int
}

// SchedLog is an append-only record of scheduler events in cycle order.
type SchedLog struct {
	events []SchedEvent
}

// Emit appends one event.
func (l *SchedLog) Emit(ev SchedEvent) { l.events = append(l.events, ev) }

// Len returns the number of recorded events.
func (l *SchedLog) Len() int { return len(l.events) }

// Events returns the recorded events (not a copy; callers must not
// mutate).
func (l *SchedLog) Events() []SchedEvent { return l.events }

// Reset clears the log, keeping capacity.
func (l *SchedLog) Reset() { l.events = l.events[:0] }
