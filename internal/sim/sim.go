// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine drives all SKV cluster experiments in virtual time: a binary
// heap of timestamped events, a virtual clock, and CPU resources (Core) that
// serialize work the way a single hardware thread does. Determinism is
// guaranteed by tie-breaking simultaneous events on a monotone sequence
// number and by giving every component its own seeded RNG.
//
// Virtual time is measured in integer nanoseconds (Time). All latency and
// throughput numbers reported by the benchmark harness derive from this
// clock, which makes experiment output bit-for-bit reproducible.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time, in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Micros reports the duration in (possibly fractional) microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Millis reports the duration in (possibly fractional) milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e6 }

// Seconds reports the duration in (possibly fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Add offsets a point in time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub reports the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", float64(t)/1e9)
}

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	// recycled marks an event from Engine.Schedule: no caller holds it, so
	// it returns to the engine's free list once popped.
	recycled bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.canceled = true
		e.fn = nil
	}
}

// Canceled reports whether Cancel was called.
func (e *Event) Canceled() bool { return e.canceled }

// When reports the virtual time the event is scheduled for.
func (e *Event) When() Time { return e.at }

// eventHeap is a binary min-heap of events ordered by (at, seq). Since seq
// is unique the order is total, so the pop sequence does not depend on the
// heap's internal layout.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() *Event {
	q := *h
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < n && q.less(l, small) {
			small = l
		}
		if r := 2*i + 2; r < n && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	*h = q
	return ev
}

// Engine is the simulation kernel: a virtual clock plus an event queue.
// It is not safe for concurrent use; the whole simulated world runs on the
// calling goroutine, which is what makes runs deterministic.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// free holds fired Schedule events for reuse.
	free []*Event

	// Processed counts events executed so far (for runaway detection and
	// test assertions).
	Processed uint64
}

// New creates an engine whose component RNGs derive from seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's root RNG. Components that need independent
// streams should use NewRand.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// NewRand derives an independent, deterministic RNG stream for a component.
func (e *Engine) NewRand() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) *Event {
	ev := &Event{}
	e.push(ev, t, fn)
	return ev
}

// Schedule runs fn at absolute virtual time t, like At, but returns no
// handle: the event cannot be cancelled, and the engine recycles it once
// it fires. It takes a sequence number exactly as At does, so mixing the
// two keeps the tie-break order. The hot paths (core dispatch, fabric
// delivery) use it with callbacks bound once, so steady-state scheduling
// allocates nothing.
func (e *Engine) Schedule(t Time, fn func()) {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &Event{recycled: true}
	}
	e.push(ev, t, fn)
}

func (e *Engine) push(ev *Event, t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.events.push(ev)
}

// After schedules fn to run d from now. Negative d is clamped to zero.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Ticker is a handle for a periodic schedule created by Every.
type Ticker struct {
	stopped bool
	ev      *Event
}

// Stop halts the periodic series. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

// Every schedules fn to run every period, starting after the first period.
func (e *Engine) Every(period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	t := &Ticker{}
	var tick func()
	tick = func() {
		if t.stopped {
			return
		}
		fn()
		if !t.stopped {
			t.ev = e.After(period, tick)
		}
	}
	t.ev = e.After(period, tick)
	return t
}

// Stop makes Run return after the event currently executing (if any).
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue empties, the horizon passes, or Stop
// is called. A horizon of 0 means "no horizon". It returns the virtual time
// at which it stopped.
func (e *Engine) Run(horizon Time) Time {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		ev := e.events[0]
		if horizon > 0 && ev.at > horizon {
			e.now = horizon
			return e.now
		}
		e.events.pop()
		if ev.canceled {
			continue
		}
		e.now = ev.at
		fn := ev.fn
		ev.fn = nil
		if ev.recycled {
			e.free = append(e.free, ev)
		}
		e.Processed++
		fn()
	}
	if horizon > 0 && e.now < horizon && !e.stopped {
		e.now = horizon
	}
	return e.now
}

// RunFor advances the simulation by d from the current time (scenario
// scripts read better with relative horizons).
func (e *Engine) RunFor(d Duration) Time { return e.Run(e.now.Add(d)) }

// Pending reports the number of events still queued (including cancelled
// events not yet popped).
func (e *Engine) Pending() int { return len(e.events) }
