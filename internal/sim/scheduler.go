package sim

// Event is a scheduled callback. Events are created through Scheduler.At /
// Scheduler.After and may be cancelled; a cancelled event is skipped when its
// time comes. The zero Event is not valid.
//
// Events come in two flavours:
//
//   - Closure events (At / After) carry a func() and return a handle the
//     caller may keep for Cancel / Reschedule. They are never recycled, so
//     a retained *Event stays valid after it fires.
//   - Task events (AtTask / AfterTask) carry a Task plus a small integer
//     argument and are fire-and-forget: no handle is returned and the Event
//     is recycled into a free list the moment it leaves the heap. They cost
//     zero steady-state allocations, which is what the PHY broadcast hot
//     path needs: two batched arrival events per frame (first-bit and
//     last-bit, each iterating the whole receiver batch), or two events
//     per receiver per frame in the unbatched reference mode. Either way
//     one executed event may deliver to many radios — Executed counts
//     scheduler dispatches, not per-receiver deliveries.
type Event struct {
	at        Time
	seq       uint64 // creation order; breaks ties deterministically (FIFO)
	fn        func()
	task      Task
	arg       int
	index     int // heap index, -1 once popped
	cancelled bool
	pooled    bool // recycle into the free list once fired
}

// Task is the allocation-free alternative to a closure: a long-lived object
// whose Run method is invoked when the event fires. The integer argument
// lets one object serve several event kinds (e.g. frame-arrival start and
// end) without per-event state.
type Task interface {
	Run(arg int)
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.cancelled }

func (e *Event) dispatch() {
	if e.task != nil {
		e.task.Run(e.arg)
		return
	}
	e.fn()
}

// heapEntry is one slot of the event queue. The ordering key (at, seq) is
// stored inline so that sift comparisons stay within the backing array
// instead of chasing *Event pointers — the queue is the simulator's hottest
// data structure.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *Event
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (at, seq). A wider
// node halves the tree depth of the binary heap and the sift loops move a
// hole instead of swapping (one entry write + one index write per level),
// which together remove the container/heap interface dispatch and most of
// the memory traffic from the hot path.
type eventHeap []heapEntry

func entryLess(a, b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h eventHeap) siftUp(i int) {
	entry := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(entry, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = entry
	entry.ev.index = i
}

func (h eventHeap) siftDown(i int) {
	entry := h[i]
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], entry) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = i
		i = m
	}
	h[i] = entry
	entry.ev.index = i
}

func (h *eventHeap) push(e *Event) {
	*h = append(*h, heapEntry{at: e.at, seq: e.seq, ev: e})
	h.siftUp(len(*h) - 1)
}

// popMin removes and returns the earliest event. (Floyd's bottom-up
// deletion was tried here and measured slower: short-lived arrival events
// keep the tail entries young, so the classic sift-down's early exit beats
// the unconditional hole-to-leaf walk.)
func (h *eventHeap) popMin() *Event {
	old := *h
	e := old[0].ev
	n := len(old) - 1
	last := old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	if n > 0 {
		old[0] = last
		h.siftDown(0)
	}
	e.index = -1
	return e
}

// remove deletes the entry at index i.
func (h *eventHeap) remove(i int) {
	old := *h
	e := old[i].ev
	n := len(old) - 1
	last := old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	if i < n {
		old[i] = last
		h.siftDown(i)
		h.siftUp(i)
	}
	e.index = -1
}

// Scheduler is a discrete-event scheduler: a priority queue of timestamped
// callbacks executed in (time, insertion-order) order while a virtual clock
// advances. It is not safe for concurrent use; a simulation owns exactly one
// scheduler and runs on one goroutine.
type Scheduler struct {
	heap    eventHeap
	free    []*Event // recycled task events (fire-and-forget, no handles)
	now     Time
	seq     uint64
	stopped bool
	// Executed counts events that have been dispatched; useful for
	// progress accounting and performance reporting.
	Executed uint64
}

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{heap: make(eventHeap, 0, 1024)}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending events (Cancel and CancelTask remove an
// event at once, so none is counted); it is intended for tests and stats.
func (s *Scheduler) Len() int { return len(s.heap) }

// FreeListLen reports the size of the task-event free list (tests/stats).
func (s *Scheduler) FreeListLen() int { return len(s.free) }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it indicates a logic error in the calling model, and silently reordering
// events would destroy causality.
func (s *Scheduler) At(t Time, fn func()) *Event {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	e := &Event{at: t, seq: s.seq, fn: fn}
	s.seq++
	s.heap.push(e)
	return e
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return s.At(s.now.Add(d), fn)
}

// AtTask schedules task.Run(arg) at virtual time t using a pooled Event.
// The event is fire-and-forget: it cannot be cancelled or rescheduled (no
// handle is returned) and its Event struct is recycled once it fires, so
// steady-state scheduling through this path does not allocate.
func (s *Scheduler) AtTask(t Time, task Task, arg int) {
	s.atTask(t, task, arg)
}

func (s *Scheduler) atTask(t Time, task Task, arg int) *Event {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{}
	}
	*e = Event{at: t, seq: s.seq, task: task, arg: arg, pooled: true}
	s.seq++
	s.heap.push(e)
	return e
}

// AfterTask schedules task.Run(arg) to run d after the current time; see
// AtTask for the pooling contract.
func (s *Scheduler) AfterTask(d Duration, task Task, arg int) {
	if d < 0 {
		panic("sim: negative delay")
	}
	s.AtTask(s.now.Add(d), task, arg)
}

// TaskHandle is a revocation token for a cancellable pooled task event. It
// pairs the Event pointer with the globally unique sequence number the
// event was created with, so a handle kept past the event's firing (and the
// Event struct's recycling into another event) is detected and ignored
// rather than cancelling an unrelated event. The zero TaskHandle refers to
// nothing; Pending reports false for it.
type TaskHandle struct {
	ev  *Event
	seq uint64
}

// Pending reports whether the handle refers to an event at all. It does not
// track firing — callers that need "still scheduled" semantics must clear
// their handle when the task runs (the task's Run is the notification).
func (h TaskHandle) Pending() bool { return h.ev != nil }

// AtTaskCancellable is AtTask returning a revocation handle for timer-style
// users (one outstanding event, frequently cancelled or superseded). The
// event is pooled exactly like AtTask's.
func (s *Scheduler) AtTaskCancellable(t Time, task Task, arg int) TaskHandle {
	e := s.atTask(t, task, arg)
	return TaskHandle{ev: e, seq: e.seq}
}

// AfterTaskCancellable is AfterTask returning a revocation handle.
func (s *Scheduler) AfterTaskCancellable(d Duration, task Task, arg int) TaskHandle {
	if d < 0 {
		panic("sim: negative delay")
	}
	return s.AtTaskCancellable(s.now.Add(d), task, arg)
}

// CancelTask revokes a pooled task event. Stale handles — the event already
// fired, was cancelled, or its struct was recycled for a newer event — are
// detected by the sequence check and ignored, so CancelTask can never
// corrupt the free list or cancel the wrong event.
func (s *Scheduler) CancelTask(h TaskHandle) {
	e := h.ev
	if e == nil || !e.pooled || e.seq != h.seq || e.index < 0 {
		return
	}
	s.heap.remove(e.index)
	s.recycle(e)
}

// recycle returns a popped task event to the free list. Closure events are
// never recycled: callers may retain their handles indefinitely, and a
// recycled handle would alias a future, unrelated event.
func (s *Scheduler) recycle(e *Event) {
	if !e.pooled {
		return
	}
	// The sentinel seq makes any retained TaskHandle to this event provably
	// stale while it sits in the free list (the seq counter never reaches it).
	*e = Event{index: -1, seq: ^uint64(0)}
	s.free = append(s.free, e)
}

// Cancel marks the event so it will not fire. Cancelling an already-fired or
// already-cancelled event is a no-op. The event is removed from the queue
// immediately to keep the heap small in timer-heavy workloads.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.cancelled {
		return
	}
	if e.index < 0 {
		// Already fired. Closure events keep their identity after firing,
		// so marking them cancelled preserves the historical Cancelled()
		// contract; there is nothing to remove from the heap.
		e.cancelled = true
		return
	}
	e.cancelled = true
	s.heap.remove(e.index)
	s.recycle(e)
}

// Reschedule cancels e and returns a fresh event running the same callback
// at the new time. It is a convenience for restartable timers.
//
// It is defensive about event lifecycle so that timer code cannot corrupt
// the scheduler: rescheduling a nil event returns nil; rescheduling an
// event that has already fired (index == -1) creates a fresh event from the
// retained callback without touching the heap or the free list; and
// rescheduling a pooled task event panics, because a fired task event may
// already have been recycled and reused for an unrelated event, so the
// request is not meaningful (task events hand out no handles, so this can
// only happen through a scheduler bug).
func (s *Scheduler) Reschedule(e *Event, t Time) *Event {
	if e == nil {
		return nil
	}
	if e.pooled {
		panic("sim: reschedule of a pooled task event")
	}
	fn := e.fn
	s.Cancel(e)
	return s.At(t, fn)
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It returns false when the queue is empty. Cancelled events
// never appear here: Cancel removes them from the heap eagerly.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.heap.popMin()
	s.now = e.at
	s.Executed++
	e.dispatch()
	s.recycle(e)
	return true
}

// RunUntil executes events in order until the queue is empty or the next
// event lies strictly beyond the horizon; the clock is then advanced to the
// horizon. Stop aborts the loop early.
func (s *Scheduler) RunUntil(horizon Time) {
	s.stopped = false
	for len(s.heap) > 0 && !s.stopped {
		if s.heap[0].at > horizon {
			break
		}
		e := s.heap.popMin()
		s.now = e.at
		s.Executed++
		e.dispatch()
		s.recycle(e)
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// RunUntilBudget executes at most budget events in order up to the
// horizon and reports whether the run is complete (no pending event at or
// before the horizon remains). It is RunUntil sliced into resumable
// chunks: calling it repeatedly until it returns true pops exactly the
// same events in exactly the same order as one RunUntil call — the clock
// is only advanced to the horizon on completion — which is what lets a
// watchdog (scenario.Scenario.RunWatched) interleave wall-clock and
// event-budget checks between chunks without perturbing a single bit of
// the simulation. Stop aborts the current chunk early (reported as not
// complete unless the queue happens to be drained).
func (s *Scheduler) RunUntilBudget(horizon Time, budget uint64) bool {
	s.stopped = false
	for budget > 0 && len(s.heap) > 0 && !s.stopped {
		if s.heap[0].at > horizon {
			break
		}
		e := s.heap.popMin()
		s.now = e.at
		s.Executed++
		e.dispatch()
		s.recycle(e)
		budget--
	}
	done := len(s.heap) == 0 || s.heap[0].at > horizon
	if done && s.now < horizon {
		s.now = horizon
	}
	return done
}

// Run executes every pending event (including ones scheduled while running)
// until the queue empties or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// Stop makes the innermost Run/RunUntil return after the current event.
func (s *Scheduler) Stop() { s.stopped = true }
