package countermeasure

import (
	"mtsim/internal/node"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// Host is the slice of a node a defence needs: identity, timers, the
// arena for retiring buffered segments, AddStage to register its
// interceptions (a shuffler's Originate, a trust table's evidence feeds)
// and Inject, through which a shuffler releases claimed segments to the
// routing protocol. node.Node implements it; tests use lightweight fakes.
type Host interface {
	ID() packet.NodeID
	Scheduler() *sim.Scheduler
	Arena() *packet.Arena
	AddStage(st node.Stage)
	// Inject hands a packet to the routing protocol, bypassing the
	// Originate stages.
	Inject(p *packet.Packet)
}

// Shuffler buffers the data segments one source node originates and
// releases them in blocks whose internal order is a random permutation
// drawn from its own deterministic stream. A block flushes when it
// reaches depth segments or when the oldest buffered segment has waited
// hold — whichever comes first — so a trickling sender (TCP at cwnd 1)
// pays at most hold of extra latency while a burst is permuted whole.
//
// Ownership: between Filter and the flush the shuffler owns the buffered
// packets; flushing transfers them to the routing protocol one by one (a
// permutation — never a copy, a drop or a duplicate), and Retire releases
// whatever the run horizon stranded in the buffer back to the arena.
type Shuffler struct {
	host  Host
	ar    *packet.Arena
	rng   *sim.RNG
	depth int
	hold  sim.Duration

	buf   []*packet.Packet
	timer sim.TaskHandle

	// Shuffled counts segments released in permuted order; Blocks counts
	// flushes (full and timer-forced).
	Shuffled uint64
	Blocks   uint64
}

// NewShuffler attaches a shuffler to the host's originate path.
func NewShuffler(h Host, rng *sim.RNG, depth int, hold sim.Duration) *Shuffler {
	if depth < 1 {
		depth = 1
	}
	s := &Shuffler{host: h, ar: h.Arena(), rng: rng, depth: depth, hold: hold}
	h.AddStage(node.Stage{Originate: s.Filter})
	return s
}

// Filter is the shuffler's Originate stage: transport data segments that this
// node itself originates are claimed into the current block; everything
// else (ACKs, control, transit traffic) passes straight through.
func (s *Shuffler) Filter(p *packet.Packet) bool {
	if p.Kind != packet.KindData || p.DataID == 0 || p.Src != s.host.ID() {
		return false
	}
	s.buf = append(s.buf, p)
	if len(s.buf) >= s.depth {
		s.flush()
		return true
	}
	if !s.timer.Pending() && s.hold > 0 {
		s.timer = s.host.Scheduler().After(s.hold, s.onHold)
	}
	return true
}

func (s *Shuffler) onHold() {
	s.timer = sim.TaskHandle{}
	if len(s.buf) > 0 {
		s.flush()
	}
}

// flush releases the buffered block in a permuted order. The permutation
// is drawn fresh per block, so even a repeating block size never settles
// into a fixed interleaving an observer could invert.
func (s *Shuffler) flush() {
	s.host.Scheduler().Cancel(s.timer)
	s.timer = sim.TaskHandle{}
	block := s.buf
	s.buf = nil // reentrant originations open a fresh block
	s.Blocks++
	for _, i := range s.rng.Perm(len(block)) {
		s.Shuffled++
		s.host.Inject(block[i])
	}
	// Reuse the block's backing array (cleared, so it does not pin
	// released packets) unless a reentrant origination already replaced it.
	for i := range block {
		block[i] = nil
	}
	if s.buf == nil {
		s.buf = block[:0]
	}
}

// Pending returns the number of segments currently buffered (tests).
func (s *Shuffler) Pending() int { return len(s.buf) }

// Retire hands every still-buffered segment back to the arena and stops
// the hold timer; the shuffler must not see traffic afterwards. This is
// the countermeasure's explicit release point in the leak-accounting
// contract: segments claimed from Originate either re-enter the stack via
// Inject or die here.
func (s *Shuffler) Retire() {
	s.host.Scheduler().Cancel(s.timer)
	s.timer = sim.TaskHandle{}
	for i, p := range s.buf {
		s.ar.Release(p)
		s.buf[i] = nil
	}
	s.buf = s.buf[:0]
}
