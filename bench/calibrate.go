package bench

import (
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The benchmark shares its host with other tenants, whose load slows
// every core by up to half for tens of seconds at a time: as long as a
// run, so no statistic over one run's repetitions can remove it. A fixed
// kernel, timed between the timed phases of an untraced run, measures the
// host's speed, and the run's timings are scaled by refCalibration over
// the kernel's median time: into seconds of a host at reference speed.
// The kernel is standard-library code that lives here, so no change to
// the simulator moves it. Raw host timings stay in Report.Samples.

// refCalibration is the kernel's time on an idle two-CPU host.
const refCalibration = 20 * time.Millisecond

// The kernel mixes what the simulator's cost is made of: a branchy sort
// and map updates, small allocations, and dependent loads over a table
// larger than the caches.
var (
	calInts  []int
	calChase []int32
	calOnce  sync.Once
	calMu    sync.Mutex
	calSink  int // keeps the kernel's result live
)

func calInit() {
	rng := rand.New(rand.NewSource(1))
	calInts = make([]int, 1<<17)
	for i := range calInts {
		calInts[i] = rng.Int()
	}
	// Sattolo's shuffle: one cycle through every slot, so the chase
	// never settles into a cached loop.
	calChase = make([]int32, 1<<20)
	for i := range calChase {
		calChase[i] = int32(i)
	}
	for i := len(calChase) - 1; i > 0; i-- {
		j := rng.Intn(i)
		calChase[i], calChase[j] = calChase[j], calChase[i]
	}
}

type calNode struct {
	key  string
	next *calNode
}

func calKernel() int {
	buf := append([]int(nil), calInts...)
	sort.Ints(buf)
	m := make(map[int]int, 1<<14)
	for i, v := range buf[:1<<15] {
		m[v&0xffff] += i
	}
	var head *calNode
	for i := 0; i < 1<<14; i++ {
		head = &calNode{key: strconv.Itoa(i), next: head}
	}
	n := len(m)
	for c := head; c != nil; c = c.next {
		n += len(c.key)
	}
	j := int32(0)
	for i := 0; i < 1<<16; i++ {
		j = calChase[j]
	}
	return n + int(j)
}

// calibrate returns the median of five timings of the kernel. Each runs
// it on two goroutines at once, the workloads' parallelism, from a
// collected heap, and averages the two: the host's two CPUs are often
// unequally loaded, and a single-threaded op lands on either. The smoke
// test's tiny size times it once.
func calibrate(sz size) time.Duration {
	calOnce.Do(calInit)
	times := make([]float64, pick(sz == tiny, 1, 5))
	for i := range times {
		runtime.GC()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				n := calKernel()
				d := time.Since(start)
				calMu.Lock()
				calSink += n
				times[i] += float64(d) / 2
				calMu.Unlock()
			}()
		}
		wg.Wait()
	}
	return time.Duration(median(times))
}
