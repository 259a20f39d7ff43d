package sim

import "testing"

// The hot scheduling paths must not allocate once warm: every simulated
// message and CPU task goes through them, so a per-call allocation shows up
// as GC time in every experiment.

func TestScheduleSteadyStateAllocatesNothing(t *testing.T) {
	e := New(1)
	fired := 0
	fn := func() { fired++ }
	step := func() {
		e.Schedule(e.Now().Add(5), fn)
		e.Run(0)
	}
	step()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("Schedule+fire allocated %.1f times per run, want 0", n)
	}
	if fired < 1000 {
		t.Fatalf("fired %d events", fired)
	}
}

func TestCoreExecSteadyStateAllocatesNothing(t *testing.T) {
	e := New(1)
	c := NewCore(e, "c", 1.0)
	fired := 0
	fn := func() { fired++ }
	step := func() {
		c.Exec(10, fn)
		c.Exec(20, fn)
		e.Run(0)
	}
	step()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("Core.Exec+fire allocated %.1f times per run, want 0", n)
	}
}

func TestProcPostSteadyStateAllocatesNothing(t *testing.T) {
	e := New(1)
	p := NewProc(e, NewCore(e, "c", 1.0), 10)
	fired := 0
	fn := func() { fired++ }
	step := func() {
		p.Post(10, fn)
		p.Post(20, fn)
		e.Run(0)
	}
	step()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("Proc.Post+fire allocated %.1f times per run, want 0", n)
	}
}

// A saturated resource never drains to empty, so its queue must bound its
// backing array by compacting, not by waiting for an empty queue.
const (
	saturationBacklog = 64
	saturationTasks   = 100_000
)

func TestProcSaturatedQueueStaysBounded(t *testing.T) {
	e := New(1)
	p := NewProc(e, NewCore(e, "c", 1.0), 10)
	posted := 0
	var task func()
	task = func() {
		if posted < saturationTasks {
			posted++
			p.Post(10, task)
		}
	}
	e.At(0, func() {
		for i := 0; i < saturationBacklog; i++ {
			posted++
			p.Post(10, task)
		}
	})
	maxCap := 0
	for e.Pending() > 0 {
		e.RunFor(10 * Microsecond)
		maxCap = max(maxCap, cap(p.queue.buf))
	}
	if p.Handled < saturationTasks {
		t.Fatalf("handled %d tasks, want %d", p.Handled, saturationTasks)
	}
	if maxCap > 4*saturationBacklog {
		t.Fatalf("queue capacity reached %d for a backlog of %d", maxCap, saturationBacklog)
	}
}

func TestCoreSaturatedQueueStaysBounded(t *testing.T) {
	e := New(1)
	c := NewCore(e, "c", 1.0)
	done, posted := 0, 0
	var task func()
	task = func() {
		done++
		if posted < saturationTasks {
			posted++
			c.Exec(10, task)
		}
	}
	e.At(0, func() {
		for i := 0; i < saturationBacklog; i++ {
			posted++
			c.Exec(10, task)
		}
	})
	maxCap := 0
	for e.Pending() > 0 {
		e.RunFor(10 * Microsecond)
		maxCap = max(maxCap, cap(c.queue.buf))
	}
	if done < saturationTasks {
		t.Fatalf("ran %d tasks, want %d", done, saturationTasks)
	}
	if maxCap > 4*saturationBacklog {
		t.Fatalf("queue capacity reached %d for a backlog of %d", maxCap, saturationBacklog)
	}
}

func TestQueueFIFOAcrossCompaction(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round%5+1 && q.Len() > 0; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d items, pushed %d", want, next)
	}
}

// Recycled events take sequence numbers exactly as At does, so the two
// interleave in FIFO order at equal times.
func TestScheduleSharesTieBreakOrderWithAt(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 6; i++ {
		i := i
		if i%2 == 0 {
			e.At(5, func() { got = append(got, i) })
		} else {
			e.Schedule(5, func() { got = append(got, i) })
		}
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time At/Schedule events not FIFO: %v", got)
		}
	}
}
