package telemetry

import (
	"encoding/json"
	"io"
	"strconv"

	"instrsample/internal/ir"
	"instrsample/internal/vm"
)

// Trace is a ring-buffered execution trace recorder implementing
// vm.Observer. Each VM thread gets its own ring (created on first
// event), so recording never contends across threads and the hot path is
// a single array store. When a ring fills, the oldest events are
// overwritten and counted as drops — the recorder keeps the *end* of the
// run, which is what a flight recorder wants.
//
// Block transfers are filtered down to checking/duplicated boundary
// crossings (EvDupEnter, EvDupExit); intra-kind transfers are framework
// noise and would dominate the ring. A return executed inside duplicated
// code also emits EvDupExit, so duplicated-code spans are properly
// closed per frame. The recorder declares exactly that (vm.EventFilter):
// every hook class but transfers, whose boundary crossings the VM always
// delivers, so a traced run keeps the fast path's fused streams.
//
// Export with WriteChromeTrace after the run completes (or from the VM
// goroutine): the rings are written without locks, so a snapshot raced
// against a running VM may see a torn newest entry.
type Trace struct {
	clock Clock
	cap   int
	rings []*ring
}

// NewTrace returns a recorder keeping the most recent capacity events
// per thread, rounded up to a power of two (1<<14 when non-positive).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = 1 << 14
	}
	return &Trace{cap: nextPow2(capacity)}
}

// SetClock installs the timestamp source; call it right after vm.New,
// with the VM itself. Events recorded with no clock carry cycle 0.
func (tr *Trace) SetClock(c Clock) { tr.clock = c }

func (tr *Trace) now() uint64 {
	if tr.clock == nil {
		return 0
	}
	return tr.clock.Now()
}

func (tr *Trace) ringFor(tid int) *ring {
	for tid >= len(tr.rings) {
		tr.rings = append(tr.rings, newRing(tr.cap))
	}
	return tr.rings[tid]
}

func (tr *Trace) record(t *vm.Thread, kind EventKind, m *ir.Method, arg int64) {
	tr.ringFor(t.ID).push(Event{
		Cycle:  tr.now(),
		Kind:   kind,
		Thread: int32(t.ID),
		Method: m,
		Arg:    arg,
	})
}

// Events implements vm.EventFilter: every hook class but transfers.
// The VM delivers the checking/duplicated crossings, the only
// transfers the recorder keeps, whatever the mask.
func (tr *Trace) Events() vm.EventMask { return vm.EvAll &^ vm.EvTransfer }

// NextWake implements vm.EventFilter: the mask already names every
// event the recorder keeps.
func (tr *Trace) NextWake() uint64 { return vm.NoWake }

// OnEnter implements vm.Observer.
func (tr *Trace) OnEnter(t *vm.Thread, f *vm.Frame) {
	tr.record(t, EvEnter, f.Method, 0)
}

// OnExit implements vm.Observer. A return executed in duplicated code
// closes the open duplicated-code span first.
func (tr *Trace) OnExit(t *vm.Thread, f *vm.Frame) {
	if f.Block != nil && f.Block.Kind == ir.KindDuplicated {
		tr.record(t, EvDupExit, f.Method, int64(f.Block.GID))
	}
	tr.record(t, EvExit, f.Method, 0)
}

// OnTransfer implements vm.Observer, recording only transfers that cross
// the checking/duplicated boundary.
func (tr *Trace) OnTransfer(t *vm.Thread, f *vm.Frame, in *ir.Instr, target int) {
	to := in.Targets[target]
	fromDup := f.Block != nil && f.Block.Kind == ir.KindDuplicated
	toDup := to.Kind == ir.KindDuplicated
	switch {
	case !fromDup && toDup:
		tr.record(t, EvDupEnter, f.Method, int64(to.GID))
	case fromDup && !toDup:
		tr.record(t, EvDupExit, f.Method, int64(f.Block.GID))
	}
}

// OnCheck implements vm.Observer.
func (tr *Trace) OnCheck(t *vm.Thread, f *vm.Frame, in *ir.Instr, fired bool) {
	kind := EvCheckPolled
	if fired {
		kind = EvCheckFired
	}
	tr.record(t, kind, f.Method, 0)
}

// OnProbe implements vm.Observer.
func (tr *Trace) OnProbe(t *vm.Thread, f *vm.Frame, p *ir.Probe) {
	tr.record(t, EvProbe, f.Method, ProbeArg(p))
}

// OnYield implements vm.Observer.
func (tr *Trace) OnYield(t *vm.Thread, f *vm.Frame) {
	tr.record(t, EvYield, f.Method, 0)
}

// Threads returns the number of threads that recorded at least one
// event (the length of the per-thread ring table).
func (tr *Trace) Threads() int { return len(tr.rings) }

// ThreadEvents returns thread tid's retained events, oldest first. It
// returns nil for a thread with no ring.
func (tr *Trace) ThreadEvents(tid int) []Event {
	if tid < 0 || tid >= len(tr.rings) {
		return nil
	}
	return tr.rings[tid].events()
}

// Total returns the number of events ever recorded on thread tid,
// including dropped ones.
func (tr *Trace) Total(tid int) uint64 {
	if tid < 0 || tid >= len(tr.rings) {
		return 0
	}
	return tr.rings[tid].total()
}

// Drops returns the number of events overwritten on thread tid.
func (tr *Trace) Drops(tid int) uint64 {
	if tid < 0 || tid >= len(tr.rings) {
		return 0
	}
	return tr.rings[tid].drops()
}

// TotalDrops sums Drops over all threads.
func (tr *Trace) TotalDrops() uint64 {
	var n uint64
	for tid := range tr.rings {
		n += tr.rings[tid].drops()
	}
	return n
}

// ChromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Exported so other packages (the service's merged job trace) can
// compose documents mixing VM events with their own spans.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeDoc is the JSON-object flavour of the trace-event container,
// the one document type of both Chrome exports (WriteChromeTrace and the
// service's merged job trace).
type ChromeDoc struct {
	TraceEvents     []ChromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

// NamedEvent is one retained event in value form: the method rides by
// name, so a snapshot holds no pointers into the program and can
// outlive the run — retaining ring events directly would pin the run's
// whole compiled IR through their *ir.Method fields.
type NamedEvent struct {
	Ts     uint64
	Kind   EventKind
	Thread int32
	Method string
	Arg    int64
}

// NamedEvents returns every thread's retained events in value form,
// oldest first per thread, cycle timestamps mapped through ts (nil is
// identity: one cycle renders as 1µs).
func (tr *Trace) NamedEvents(ts func(cycle uint64) uint64) []NamedEvent {
	if ts == nil {
		ts = func(c uint64) uint64 { return c }
	}
	// Method names repeat heavily across a ring; intern per conversion so
	// the snapshot allocates one string per distinct method, not per event.
	names := map[*ir.Method]string{}
	name := func(m *ir.Method) string {
		if m == nil {
			return ""
		}
		n, ok := names[m]
		if !ok {
			n = m.FullName()
			names[m] = n
		}
		return n
	}
	n := 0
	for _, r := range tr.rings {
		n += int(r.total() - r.drops())
	}
	events := make([]NamedEvent, 0, n)
	for _, r := range tr.rings {
		for _, e := range r.events() {
			events = append(events, NamedEvent{
				Ts:     ts(e.Cycle),
				Kind:   e.Kind,
				Thread: e.Thread,
				Method: name(e.Method),
				Arg:    e.Arg,
			})
		}
	}
	return events
}

// Chrome converts the event to its Chrome trace form under the given
// pid. Method enter/exit map to duration begin/end pairs;
// duplicated-code spans likewise; everything else becomes a
// thread-scoped instant event.
func (e NamedEvent) Chrome(pid int) ChromeEvent {
	ce := ChromeEvent{
		Name: e.Kind.String(),
		Ts:   e.Ts,
		Pid:  pid,
		Tid:  int(e.Thread),
	}
	method := e.Method
	switch e.Kind {
	case EvEnter:
		ce.Ph, ce.Cat, ce.Name = "B", "method", method
	case EvExit:
		ce.Ph, ce.Cat, ce.Name = "E", "method", method
	case EvDupEnter:
		ce.Ph, ce.Cat, ce.Name = "B", "dup", "duplicated-code"
		ce.Args = map[string]any{"block": e.Arg, "method": method}
	case EvDupExit:
		ce.Ph, ce.Cat, ce.Name = "E", "dup", "duplicated-code"
	case EvProbe:
		ce.Ph, ce.Cat, ce.S = "i", "probe", "t"
		ce.Args = map[string]any{
			"method": method,
			"owner":  ProbeOwner(e.Arg),
			"kind":   int(ProbeKind(e.Arg)),
		}
	case EvCheckFired, EvCheckPolled:
		ce.Ph, ce.Cat, ce.S = "i", "check", "t"
		ce.Args = map[string]any{"method": method}
	default: // EvYield
		ce.Ph, ce.Cat, ce.S = "i", "sched", "t"
		ce.Args = map[string]any{"method": method}
	}
	return ce
}

// WriteChromeTrace writes the retained events of every thread as Chrome
// trace-event JSON (object format, so metadata rides along). Timestamps
// are VM cycles presented as microseconds: one cycle renders as 1µs.
// Dropped events make the earliest retained "E" events unmatched; the
// viewers tolerate that, and per-thread drop counts are reported in
// otherData.
func (tr *Trace) WriteChromeTrace(w io.Writer) error {
	named := tr.NamedEvents(nil)
	events := make([]ChromeEvent, 0, 1+len(tr.rings)+len(named))
	events = append(events, ChromeEvent{Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "instrsample vm"}})
	drops := map[string]any{}
	for tid := range tr.rings {
		events = append(events, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": threadName(tid)},
		})
	}
	for _, e := range named {
		events = append(events, e.Chrome(1))
	}
	var total, dropped uint64
	for tid, r := range tr.rings {
		total += r.total()
		if d := r.drops(); d > 0 {
			drops[threadName(tid)] = d
			dropped += d
		}
	}
	out := ChromeDoc{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"clockDomain":   "vm-cycles",
			"eventsTotal":   total,
			"eventsDropped": dropped,
			"dropsByThread": drops,
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func threadName(tid int) string {
	if tid == 0 {
		return "thread 0 (main)"
	}
	return "thread " + strconv.Itoa(tid)
}
