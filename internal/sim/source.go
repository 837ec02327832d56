package sim

// Constants of math/rand's additive lagged-Fibonacci generator.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lehmerA  = 48271 // math/rand's seedrand multiplier, modulo int32max
)

// entryJump[i] is 48271^(21+3i) mod (2³¹−1): math/rand's Seed takes 20
// Lehmer steps before register entry 0 and three per entry, so entry i
// starts from the reduced seed times entryJump[i].
var entryJump = func() (t [rngLen]uint64) {
	p := uint64(1)
	for n := 0; n < 21; n++ {
		p = p * lehmerA % int32max
	}
	cube := uint64(lehmerA) * lehmerA % int32max * lehmerA % int32max
	for i := range t {
		t[i] = p
		p = p * cube % int32max
	}
	return t
}()

// lazySource is a rand.Source64 whose stream is exactly that of
// math/rand's rngSource under the same seed, but whose seeding is O(1).
// Every entry of math/rand's 607-entry register is a pure function of the
// seed (entry), and draw k < 273 (counting from 0) adds entries 333−k
// and 606−k, neither of which an earlier draw has written; so the first
// 273 draws compute their two entries on the fly. Draw 273, the first to
// read a written entry, builds the register, replays the writes of the
// draws before it, and carries on exactly as math/rand does. Most
// simulator streams are discarded after a handful of draws and never pay
// for the ~5 KiB register.
type lazySource struct {
	seed      uint64         // reduced as math/rand reduces it: in [1, 2³¹−1)
	tap, feed int            // math/rand's register indices
	vec       *[rngLen]int64 // nil until draw 273
}

// Seed resets the source to the start of seed's stream.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = lazySource{seed: uint64(seed), feed: rngLen - rngTap}
}

// entry returns math/rand's seeded register entry i.
func (s *lazySource) entry(i int) int64 {
	x := s.seed * entryJump[i] % int32max
	u := int64(x) << 40
	x = x * lehmerA % int32max
	u ^= int64(x) << 20
	x = x * lehmerA % int32max
	return u ^ int64(x) ^ rngCooked[i]
}

// build materialises the register as the draws served so far left it:
// draw k wrote entry 333−k plus entry 606−k into slot 333−k.
func (s *lazySource) build() {
	s.vec = new([rngLen]int64)
	for i := range s.vec {
		s.vec[i] = s.entry(i)
	}
	for k := 0; k < rngTap; k++ {
		s.vec[rngLen-rngTap-1-k] += s.vec[rngLen-1-k]
	}
}

// Uint64 returns the next value of math/rand's stream.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.vec == nil {
		if s.tap >= rngLen-rngTap {
			return uint64(s.entry(s.feed) + s.entry(s.tap))
		}
		s.build()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of math/rand's stream, as math/rand's
// rngSource does: Uint64 with the top bit cleared.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
