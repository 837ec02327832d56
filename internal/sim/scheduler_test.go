package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if got := Time(2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %v", got)
	}
	if got := Micros(50); got != 50*Microsecond {
		t.Fatalf("Micros(50) = %v", got)
	}
	tm := Time(0).Add(3 * Second)
	if tm.Sub(Time(Second)) != 2*Second {
		t.Fatalf("Sub wrong")
	}
	if tm.String() != "3.000000s" {
		t.Fatalf("String = %q", tm.String())
	}
	if Duration(1500*Microsecond).String() != "0.001500s" {
		t.Fatalf("Duration.String = %q", Duration(1500*Microsecond).String())
	}
}

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(3*Time(Second), func() { got = append(got, 3) })
	s.At(1*Time(Second), func() { got = append(got, 1) })
	s.At(2*Time(Second), func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 3*Time(Second) {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(Second), func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.At(Time(Second), func() { fired = true })
	s.Cancel(e)
	s.Cancel(e) // double-cancel is a no-op
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() not reported")
	}
}

func TestSchedulerCancelDuringRun(t *testing.T) {
	s := NewScheduler()
	fired := false
	var e2 *Event
	s.At(Time(Second), func() { s.Cancel(e2) })
	e2 = s.At(2*Time(Second), func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestSchedulerReschedule(t *testing.T) {
	s := NewScheduler()
	var at Time
	e := s.At(Time(Second), func() { at = s.Now() })
	e = s.Reschedule(e, 5*Time(Second))
	s.Run()
	if at != 5*Time(Second) {
		t.Fatalf("rescheduled event fired at %v", at)
	}
	if e.At() != 5*Time(Second) {
		t.Fatalf("At() = %v", e.At())
	}
}

func TestSchedulerRunUntilHorizon(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for i := 1; i <= 5; i++ {
		i := i
		s.At(Time(i)*Time(Second), func() { got = append(got, s.Now()) })
	}
	s.RunUntil(3 * Time(Second))
	if len(got) != 3 {
		t.Fatalf("executed %d events, want 3", len(got))
	}
	if s.Now() != 3*Time(Second) {
		t.Fatalf("clock = %v, want horizon", s.Now())
	}
	// Remaining events still run afterwards.
	s.RunUntil(10 * Time(Second))
	if len(got) != 5 {
		t.Fatalf("executed %d events total, want 5", len(got))
	}
	if s.Now() != 10*Time(Second) {
		t.Fatalf("clock = %v, want 10s", s.Now())
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 0; i < 10; i++ {
		s.At(Time(i)*Time(Second), func() {
			count++
			if count == 4 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 4 {
		t.Fatalf("ran %d events after Stop, want 4", count)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(Time(Second), func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(0, func() {})
}

func TestSchedulerNegativeDelayPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var got []Time
	s.At(Time(Second), func() {
		s.After(Duration(Second), func() { got = append(got, s.Now()) })
	})
	s.Run()
	if len(got) != 1 || got[0] != 2*Time(Second) {
		t.Fatalf("nested event: %v", got)
	}
}

// Property: for any multiset of event times, execution order is the sorted
// order, with FIFO among equal timestamps.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewScheduler()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, v := range raw {
			at := Time(v) * Time(Microsecond)
			i := i
			s.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		ok := sort.SliceIsSorted(fired, func(a, b int) bool {
			if fired[a].at != fired[b].at {
				return fired[a].at < fired[b].at
			}
			return fired[a].seq < fired[b].seq
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestSchedulerCancelProperty(t *testing.T) {
	f := func(times []uint16, mask []bool) bool {
		s := NewScheduler()
		fired := map[int]bool{}
		events := make([]*Event, len(times))
		for i, v := range times {
			i := i
			events[i] = s.At(Time(v), func() { fired[i] = true })
		}
		cancelled := map[int]bool{}
		for i := range events {
			if i < len(mask) && mask[i] {
				s.Cancel(events[i])
				cancelled[i] = true
			}
		}
		s.Run()
		for i := range events {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDeriveSeedSeparation(t *testing.T) {
	s1 := DeriveSeed(7, "mobility")
	s2 := DeriveSeed(7, "traffic")
	s3 := DeriveSeed(8, "mobility")
	if s1 == s2 || s1 == s3 {
		t.Fatalf("derived seeds collide: %d %d %d", s1, s2, s3)
	}
	if s1 != DeriveSeed(7, "mobility") {
		t.Fatal("DeriveSeed not deterministic")
	}
}

func TestRNGUniformRange(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestRNGJitterRange(t *testing.T) {
	g := NewRNG(1)
	if g.Jitter(0) != 0 {
		t.Fatal("Jitter(0) != 0")
	}
	for i := 0; i < 1000; i++ {
		j := g.Jitter(Second)
		if j < 0 || j >= Second {
			t.Fatalf("jitter out of range: %v", j)
		}
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	// Consuming extra draws from one derived stream must not change
	// another derived stream (paired-comparison property).
	g1 := NewRNG(99)
	a := g1.Derive("a")
	b1 := g1.Derive("b")
	firstB1 := b1.Float64()

	g2 := NewRNG(99)
	a2 := g2.Derive("a")
	for i := 0; i < 50; i++ {
		a2.Float64() // extra draws
	}
	b2 := g2.Derive("b")
	if firstB1 != b2.Float64() {
		t.Fatal("derived stream perturbed by sibling draws")
	}
	_ = a
}

func TestRNGExpPositive(t *testing.T) {
	g := NewRNG(5)
	sum := 0.0
	for i := 0; i < 5000; i++ {
		v := g.Exp(2.0)
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		sum += v
	}
	mean := sum / 5000
	if mean < 1.6 || mean > 2.4 {
		t.Fatalf("exp mean = %v, want ~2.0", mean)
	}
}

func TestRNGPerm(t *testing.T) {
	g := NewRNG(3)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

// taskRec is a Task recording the args it was dispatched with.
type taskRec struct{ got []int }

func (t *taskRec) Run(arg int) { t.got = append(t.got, arg) }

func TestSchedulerTaskEventsDispatchInOrder(t *testing.T) {
	s := NewScheduler()
	tr := &taskRec{}
	var closures []int
	s.AtTask(2*Time(Second), tr, 2)
	s.At(Time(Second), func() { closures = append(closures, 1) })
	s.AtTask(Time(Second), tr, 1) // same time as the closure, scheduled later
	s.AfterTask(Duration(3*Second), tr, 3)
	s.Run()
	if len(tr.got) != 3 || tr.got[0] != 1 || tr.got[1] != 2 || tr.got[2] != 3 {
		t.Fatalf("task args = %v", tr.got)
	}
	if len(closures) != 1 {
		t.Fatalf("closure events = %v", closures)
	}
	if s.Executed != 4 {
		t.Fatalf("Executed = %d, want 4", s.Executed)
	}
}

func TestSchedulerTaskEventPoolReuse(t *testing.T) {
	s := NewScheduler()
	tr := &taskRec{}
	for i := 0; i < 100; i++ {
		s.AfterTask(Duration(Millisecond), tr, i)
		s.Step()
	}
	if len(tr.got) != 100 {
		t.Fatalf("dispatched %d, want 100", len(tr.got))
	}
	// Sequential schedule/fire needs exactly one pooled Event.
	if s.FreeListLen() != 1 {
		t.Fatalf("free list holds %d events, want 1", s.FreeListLen())
	}
}

func TestSchedulerTaskEventZeroAllocSteadyState(t *testing.T) {
	s := NewScheduler()
	tr := &taskRec{got: make([]int, 0, 4096)}
	// Warm up the pool.
	s.AfterTask(0, tr, 0)
	s.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		s.AfterTask(Duration(Millisecond), tr, 0)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("task scheduling allocates %.1f objects/op, want 0", allocs)
	}
}

// Regression test for the pooled-scheduler lifecycle: rescheduling an event
// that has already fired must create a fresh, working event and must not
// touch the task-event free list (a stale *Event must never corrupt it).
func TestSchedulerRescheduleAfterFired(t *testing.T) {
	s := NewScheduler()
	runs := 0
	e := s.At(Time(Second), func() { runs++ })
	s.Run()
	if runs != 1 || e.index != -1 {
		t.Fatalf("precondition: runs=%d index=%d", runs, e.index)
	}
	// Mix some pooled traffic in so a corrupted free list would be visible.
	tr := &taskRec{}
	s.AfterTask(Duration(Millisecond), tr, 7)
	s.Step()
	before := s.FreeListLen()

	e2 := s.Reschedule(e, 5*Time(Second))
	if e2 == nil || e2 == e {
		t.Fatalf("Reschedule of fired event returned %v", e2)
	}
	s.Run()
	if runs != 2 {
		t.Fatalf("rescheduled fired event ran %d times, want 2", runs)
	}
	if s.FreeListLen() != before {
		t.Fatalf("free list changed: %d -> %d", before, s.FreeListLen())
	}
}

func TestSchedulerRescheduleNil(t *testing.T) {
	s := NewScheduler()
	if got := s.Reschedule(nil, Time(Second)); got != nil {
		t.Fatalf("Reschedule(nil) = %v", got)
	}
}

func TestSchedulerReschedulePooledPanics(t *testing.T) {
	s := NewScheduler()
	s.AtTask(Time(Second), &taskRec{}, 0)
	e := s.heap[0].ev // white box: task events hand out no handles
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling a pooled task event did not panic")
		}
	}()
	s.Reschedule(e, 2*Time(Second))
}

func TestSchedulerCancelAfterFired(t *testing.T) {
	s := NewScheduler()
	runs := 0
	e := s.At(Time(Second), func() { runs++ })
	s.Run()
	s.Cancel(e) // must be a harmless no-op
	if !e.Cancelled() {
		t.Fatal("Cancelled() not reported after post-fire Cancel")
	}
	if s.FreeListLen() != 0 {
		t.Fatal("closure event leaked into the task free list")
	}
	if runs != 1 {
		t.Fatalf("runs = %d", runs)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	g := rand.New(rand.NewSource(1))
	// Keep a standing population of events, replacing each as it fires.
	var fire func()
	fire = func() {
		s.After(Duration(g.Int63n(int64(Second))), fire)
	}
	for i := 0; i < 1024; i++ {
		s.After(Duration(g.Int63n(int64(Second))), fire)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func TestRNGRecyclerBitIdentical(t *testing.T) {
	var p RNGRecycler
	draw := func(g *RNG) [4]int64 {
		d := g.Derive("sub")
		return [4]int64{g.Int63(), d.Int63(), g.Int63(), int64(g.Intn(1000))}
	}
	fresh := draw(NewRNG(42))
	first := draw(p.New(42))
	if fresh != first {
		t.Fatalf("recycler first life differs: %v vs %v", fresh, first)
	}
	p.Recycle()
	if p.Len() == 0 {
		t.Fatal("recycler reclaimed nothing")
	}
	second := draw(p.New(42))
	if fresh != second {
		t.Fatalf("re-seeded source differs from fresh: %v vs %v", fresh, second)
	}
	// A different seed on a recycled source is that seed's stream.
	p.Recycle()
	other := draw(p.New(7))
	if other != draw(NewRNG(7)) {
		t.Fatal("recycled source not equivalent under new seed")
	}
	if other == fresh {
		t.Fatal("seed ignored on recycled source")
	}
}

// TestRunUntilBudgetChunksMatchRunUntil: slicing a run into arbitrary
// budget chunks pops the same events in the same order with the same
// final clock and Executed count as one RunUntil — the invariant the
// watchdog's chunked run loop rests on.
func TestRunUntilBudgetChunksMatchRunUntil(t *testing.T) {
	build := func() (*Scheduler, *[]int) {
		s := NewScheduler()
		var order []int
		// A cascading workload: events schedule follow-ups, including
		// some beyond the horizon.
		for i := 0; i < 10; i++ {
			i := i
			s.At(Time(i)*Time(Millisecond), func() {
				order = append(order, i)
				s.After(3*Millisecond, func() { order = append(order, 100+i) })
			})
		}
		return s, &order
	}
	ref, refOrder := build()
	ref.RunUntil(8 * Time(Millisecond))

	chunked, chOrder := build()
	horizon := 8 * Time(Millisecond)
	steps := 0
	for !chunked.RunUntilBudget(horizon, 3) {
		if steps++; steps > 100 {
			t.Fatal("RunUntilBudget never completed")
		}
	}
	if len(*refOrder) == 0 {
		t.Fatal("reference run executed nothing")
	}
	if got, want := *chOrder, *refOrder; len(got) != len(want) {
		t.Fatalf("chunked run executed %d events, reference %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d: chunked ran %d, reference %d", i, got[i], want[i])
			}
		}
	}
	if chunked.Now() != ref.Now() {
		t.Fatalf("clock differs: chunked %v, reference %v", chunked.Now(), ref.Now())
	}
	if chunked.Executed != ref.Executed {
		t.Fatalf("Executed differs: chunked %d, reference %d", chunked.Executed, ref.Executed)
	}
	if chunked.Len() != ref.Len() {
		t.Fatalf("pending differs: chunked %d, reference %d", chunked.Len(), ref.Len())
	}
}

// TestRunUntilBudgetStopsMidRun: an exhausted budget leaves the clock at
// the last executed event (not the horizon) and the queue intact, and a
// later unbounded run finishes the remainder.
func TestRunUntilBudgetStopsMidRun(t *testing.T) {
	s := NewScheduler()
	var ran int
	for i := 0; i < 6; i++ {
		s.At(Time(i)*Time(Second), func() { ran++ })
	}
	horizon := 10 * Time(Second)
	if done := s.RunUntilBudget(horizon, 2); done {
		t.Fatal("budget of 2 over 6 events reported completion")
	}
	if ran != 2 {
		t.Fatalf("ran %d events under a budget of 2", ran)
	}
	if s.Now() == horizon {
		t.Fatal("clock jumped to the horizon on an incomplete run")
	}
	if !s.RunUntilBudget(horizon, 1<<30) {
		t.Fatal("unbounded continuation did not complete")
	}
	if ran != 6 || s.Now() != horizon {
		t.Fatalf("continuation: ran=%d now=%v, want 6 events and the horizon", ran, s.Now())
	}
}
