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
	if s.Len() != 0 {
		t.Fatalf("cancelled event still queued: Len = %d", s.Len())
	}
	s.Cancel(e) // double-cancel is a no-op
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulerCancelDuringRun(t *testing.T) {
	s := NewScheduler()
	fired := false
	var e2 TaskHandle
	s.At(Time(Second), func() { s.Cancel(e2) })
	e2 = s.At(2*Time(Second), func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
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
		events := make([]TaskHandle, len(times))
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
	// Sequential schedule/fire needs exactly one pooled event.
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
	// A closure event costs only what its closure captures: a pre-bound
	// func schedules and fires without allocating.
	runs := 0
	fn := func() { runs++ }
	allocs = testing.AllocsPerRun(1000, func() {
		s.After(Duration(Millisecond), fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("closure scheduling allocates %.1f objects/op, want 0", allocs)
	}
	if runs == 0 {
		t.Fatal("closure events never fired")
	}
}

// TestSchedulerCancelAfterFired: a handle kept past its event's firing is
// stale. Once the event struct is recycled into a newer event, cancelling
// through the old handle must leave the newer event alone.
func TestSchedulerCancelAfterFired(t *testing.T) {
	s := NewScheduler()
	runsA, runsB := 0, 0
	hA := s.At(Time(Second), func() { runsA++ })
	s.Run()
	hB := s.At(2*Time(Second), func() { runsB++ })
	if hB.ev != hA.ev {
		t.Fatal("precondition: B did not reuse A's recycled event")
	}
	s.Cancel(hA) // stale: must not revoke B
	if s.Len() != 1 {
		t.Fatalf("stale cancel removed an event: Len = %d", s.Len())
	}
	s.Run()
	if runsA != 1 || runsB != 1 {
		t.Fatalf("runs A=%d B=%d, want 1 and 1", runsA, runsB)
	}
	if s.FreeListLen() != 1 {
		t.Fatalf("free list holds %d events, want 1", s.FreeListLen())
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
