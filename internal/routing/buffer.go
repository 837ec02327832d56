package routing

import (
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// SendBuffer holds data packets awaiting route discovery, per destination,
// with a capacity bound and an age limit — the analogue of ns-2's send
// buffer. All four protocols use one; their Discovery drops its packets
// for a destination when the search gives up. The buffer owns its packets: every eviction reports the drop to the
// environment (Env.NotifyDrop) and releases the packet back to the arena,
// so protocols cannot forget the release and leak.
type SendBuffer struct {
	cap    int
	maxAge sim.Duration
	env    Env
	sched  *sim.Scheduler
	ar     *packet.Arena

	byDst map[packet.NodeID][]buffered
}

type buffered struct {
	p  *packet.Packet
	at sim.Time
}

// NewSendBuffer creates a buffer for env holding at most capacity packets
// per destination, each for at most maxAge. Evicted packets are reported
// to env and their storage returned to env's arena (if it carries one).
func NewSendBuffer(env Env, capacity int, maxAge sim.Duration) *SendBuffer {
	return &SendBuffer{
		cap:    capacity,
		maxAge: maxAge,
		env:    env,
		sched:  env.Scheduler(),
		ar:     ArenaOf(env),
		byDst:  make(map[packet.NodeID][]buffered),
	}
}

// Push buffers p for dst, evicting the oldest packet if full.
func (b *SendBuffer) Push(dst packet.NodeID, p *packet.Packet) {
	q := b.byDst[dst]
	q = b.expire(q)
	if len(q) >= b.cap {
		b.drop(q[0].p, "sendbuf-overflow")
		q = q[1:]
	}
	b.byDst[dst] = append(q, buffered{p: p, at: b.sched.Now()})
}

// Pop removes and returns all still-fresh packets buffered for dst.
func (b *SendBuffer) Pop(dst packet.NodeID) []*packet.Packet {
	q := b.expire(b.byDst[dst])
	delete(b.byDst, dst)
	out := make([]*packet.Packet, 0, len(q))
	for _, e := range q {
		out = append(out, e.p)
	}
	return out
}

// DropAll discards everything buffered for dst (discovery given up).
func (b *SendBuffer) DropAll(dst packet.NodeID) {
	for _, e := range b.byDst[dst] {
		b.drop(e.p, "discovery-failed")
	}
	delete(b.byDst, dst)
}

// Retire releases every buffered packet back to the arena and empties the
// buffer. End-of-run accounting only: unlike DropAll it emits no drop
// notifications (the metrics were already gathered).
func (b *SendBuffer) Retire() {
	for dst, q := range b.byDst {
		for _, e := range q {
			b.ar.Release(e.p)
		}
		delete(b.byDst, dst)
	}
}

// Len returns the number of packets buffered for dst.
func (b *SendBuffer) Len(dst packet.NodeID) int { return len(b.byDst[dst]) }

// Size returns the total number of buffered packets across destinations
// (retire-drainage audits).
func (b *SendBuffer) Size() int {
	n := 0
	for _, q := range b.byDst {
		n += len(q)
	}
	return n
}

func (b *SendBuffer) expire(q []buffered) []buffered {
	cutoff := b.sched.Now().Add(-b.maxAge)
	i := 0
	for i < len(q) && q[i].at < cutoff {
		b.drop(q[i].p, "sendbuf-timeout")
		i++
	}
	return q[i:]
}

func (b *SendBuffer) drop(p *packet.Packet, reason string) {
	b.env.NotifyDrop(p, reason)
	b.ar.Release(p)
}
