package sim

// event is one scheduled dispatch: task.Run(arg) at time at. Every event
// comes from the scheduler's free list and returns to it the moment it
// leaves the heap (fired or cancelled), so steady-state scheduling does not
// allocate. That is what the PHY broadcast hot path needs: two batched
// arrival events per frame (first-bit and last-bit, each iterating the
// whole receiver batch), or two events per receiver per frame in the
// unbatched reference mode. Either way one executed event may deliver to
// many radios — Executed counts scheduler dispatches, not per-receiver
// deliveries. Timers share the same events; a caller revokes one only
// through the TaskHandle its schedule call returned.
type event struct {
	at    Time
	seq   uint64 // creation order; breaks ties deterministically (FIFO)
	task  Task
	arg   int
	index int // heap index, -1 once popped
}

// Task is the allocation-free alternative to a closure: a long-lived object
// whose Run method is invoked when the event fires. The integer argument
// lets one object serve several event kinds (e.g. frame-arrival start and
// end) without per-event state.
type Task interface {
	Run(arg int)
}

// funcTask adapts a closure to Task for At/After. A func value fits in the
// interface without boxing, so scheduling a pre-bound func does not
// allocate; the cost of a closure event is whatever the closure captures.
type funcTask func()

func (f funcTask) Run(int) { f() }

// heapEntry is one slot of the event queue. The ordering key (at, seq) is
// stored inline so that sift comparisons stay within the backing array
// instead of chasing *event pointers — the queue is the simulator's hottest
// data structure.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *event
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

func (h *eventHeap) push(e *event) {
	*h = append(*h, heapEntry{at: e.at, seq: e.seq, ev: e})
	h.siftUp(len(*h) - 1)
}

// popMin removes and returns the earliest event. (Floyd's bottom-up
// deletion was tried here and measured slower: short-lived arrival events
// keep the tail entries young, so the classic sift-down's early exit beats
// the unconditional hole-to-leaf walk.)
func (h *eventHeap) popMin() *event {
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
	heap eventHeap
	free []*event // recycled events
	now  Time
	seq  uint64
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

// Len returns the number of pending events (Cancel removes an event at
// once, so none is counted); it is intended for tests and stats.
func (s *Scheduler) Len() int { return len(s.heap) }

// FreeListLen reports the size of the event free list (tests/stats).
func (s *Scheduler) FreeListLen() int { return len(s.free) }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it indicates a logic error in the calling model, and silently reordering
// events would destroy causality.
func (s *Scheduler) At(t Time, fn func()) TaskHandle {
	return s.AtTask(t, funcTask(fn), 0)
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Duration, fn func()) TaskHandle {
	return s.AfterTask(d, funcTask(fn), 0)
}

// AtTask schedules task.Run(arg) at virtual time t and returns a handle
// for Cancel; callers that never cancel ignore it.
func (s *Scheduler) AtTask(t Time, task Task, arg int) TaskHandle {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{}
	}
	*e = event{at: t, seq: s.seq, task: task, arg: arg}
	s.seq++
	s.heap.push(e)
	return TaskHandle{ev: e, seq: e.seq}
}

// AfterTask schedules task.Run(arg) to run d after the current time.
func (s *Scheduler) AfterTask(d Duration, task Task, arg int) TaskHandle {
	if d < 0 {
		panic("sim: negative delay")
	}
	return s.AtTask(s.now.Add(d), task, arg)
}

// TaskHandle is the revocation token for a scheduled event. It pairs the
// event pointer with the globally unique sequence number the event was
// created with, so a handle kept past the event's firing (and the event
// struct's recycling into another event) is detected and ignored rather
// than cancelling an unrelated event. The zero TaskHandle refers to
// nothing; Pending reports false for it.
type TaskHandle struct {
	ev  *event
	seq uint64
}

// Pending reports whether the handle refers to an event at all. It does not
// track firing — callers that need "still scheduled" semantics must clear
// their handle when the event runs (the callback is the notification).
func (h TaskHandle) Pending() bool { return h.ev != nil }

// Cancel revokes a scheduled event, removing it from the queue at once to
// keep the heap small in timer-heavy workloads. Stale handles — the event
// already fired, was cancelled, or its struct was recycled for a newer
// event — are detected by the sequence check and ignored, so Cancel can
// never corrupt the free list or cancel the wrong event.
func (s *Scheduler) Cancel(h TaskHandle) {
	e := h.ev
	if e == nil || e.seq != h.seq || e.index < 0 {
		return
	}
	s.heap.remove(e.index)
	s.recycle(e)
}

// recycle returns a popped event to the free list.
func (s *Scheduler) recycle(e *event) {
	// The sentinel seq makes any retained TaskHandle to this event provably
	// stale while it sits in the free list (the seq counter never reaches it).
	*e = event{index: -1, seq: ^uint64(0)}
	s.free = append(s.free, e)
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
	e.task.Run(e.arg)
	s.recycle(e)
	return true
}

// RunUntil executes events in order until the queue is empty or the next
// event lies strictly beyond the horizon; the clock is then advanced to the
// horizon.
func (s *Scheduler) RunUntil(horizon Time) {
	for len(s.heap) > 0 {
		if s.heap[0].at > horizon {
			break
		}
		e := s.heap.popMin()
		s.now = e.at
		s.Executed++
		e.task.Run(e.arg)
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
// the simulation.
func (s *Scheduler) RunUntilBudget(horizon Time, budget uint64) bool {
	for budget > 0 && len(s.heap) > 0 {
		if s.heap[0].at > horizon {
			break
		}
		e := s.heap.popMin()
		s.now = e.at
		s.Executed++
		e.task.Run(e.arg)
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
// until the queue empties.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}
