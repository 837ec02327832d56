package packet

import "mtsim/internal/sim"

// Lifecycle flag bits carried (unexported) by every Packet and Frame. The
// flags let an Arena tell its own storage from caller-allocated objects
// and recycle only component slices it handed out itself — a released
// packet whose SourceRoute aliases a routing header (e.g. an MTS Check's
// Route) must never drag that shared memory into the free list.
const (
	flagArena     uint8 = 1 << iota // struct storage belongs to an Arena
	flagReleased                    // released; any further use is a bug
	flagOwnsSR                      // SourceRoute backing array is arena-owned
	flagOwnsTrail                   // Trail backing array is arena-owned
	flagOwnsTCP                     // TCP header struct is arena-owned
)

// Poison values written into released objects (when pooling or Check is
// on): a use-after-release reads deterministic garbage instead of
// plausible stale data, so the determinism suites surface the bug instead
// of silently absorbing it.
const (
	// PoisonUID marks a released packet or frame; a live object can never
	// carry it (UIDSource counts up from 1).
	PoisonUID       = ^uint64(0) - 0xdead
	poisonNode      = NodeID(-0x7ead)
	poisonKind Kind = 0xEE
)

// ArenaStats is the arena's accounting, maintained in every mode.
type ArenaStats struct {
	PacketsAcquired uint64
	PacketsReleased uint64
	FramesAcquired  uint64
	FramesReleased  uint64
	// DoubleReleases counts releases of an already-released object; the
	// object is not recycled a second time, so the free list stays sound,
	// but any non-zero count is a caller bug.
	DoubleReleases uint64
	// ForeignReleases counts releases of objects the arena did not
	// allocate (plain &Packet{} literals); they are left to the GC.
	ForeignReleases uint64
	// PoisonTrips counts free-list objects whose poison marker had been
	// overwritten when they were next acquired — evidence of a write
	// after release. Only detected with Check on.
	PoisonTrips uint64
}

type pktQuar struct {
	p       *Packet
	readyAt sim.Time
}

type frameQuar struct {
	f       *Frame
	readyAt sim.Time
}

// Arena is a run-scoped free-list pool for the data plane: Packet and
// Frame structs, SourceRoute/Trail backing arrays and TCP headers. One
// simulation owns one arena (scenario.Build wires it through every node,
// MAC and transport endpoint); explicit Release calls at the points where
// packets die — delivered, dropped, retry-exhausted, retired at run end —
// feed the free lists. Every run builds its own arena.
//
// Pooling changes allocation only, never behaviour: a recycled object is
// zeroed before reuse, fresh UIDs come from the same UIDSource calls, and
// no scheduler events are involved (quarantined objects are reclaimed
// lazily on later acquisitions), so same-seed runs are bit-identical with
// pooling on or off (Pooling=false). Every stack, hand-built unit stacks
// included, is wired with an arena, so every release reaches a ledger.
//
// Not safe for concurrent use; like the scheduler it runs on, an arena
// belongs to one simulation.
type Arena struct {
	// Pooling enables recycling (the default from NewArena). With it off
	// the arena still does full accounting and ownership tracking but
	// never reuses storage — the reference mode the determinism tests
	// compare the pooled path against.
	Pooling bool
	// Check enables the debug accounting mode: released objects are
	// always poisoned and re-acquisitions verify the poison is intact
	// (PoisonTrips). Live/release counters are maintained regardless.
	Check bool

	clock func() sim.Time

	pkts   []*Packet
	frames []*Frame
	routes [][]NodeID
	tcps   []*TCPHeader

	// Quarantine FIFOs: objects whose owner let go while their last
	// transmission was still propagating (broadcast payloads, frames on
	// the air). They count as released immediately but re-enter
	// circulation only once the simulation clock has passed readyAt.
	quarPkts   []pktQuar
	quarFrames []frameQuar

	stats ArenaStats
}

// routePoolCap bounds the recycled-slice list so one route-heavy run
// cannot pin unbounded memory for the arena's lifetime.
const routePoolCap = 4096

// NewArena returns an empty arena with pooling enabled. now is the
// simulation clock quarantined releases are timed against (the run's
// Scheduler.Now).
func NewArena(now func() sim.Time) *Arena { return &Arena{Pooling: true, clock: now} }

// Stats returns a copy of the accounting counters.
func (a *Arena) Stats() ArenaStats { return a.stats }

// LivePackets returns acquired-minus-released packets: zero after a fully
// retired run if and only if no call site leaked.
func (a *Arena) LivePackets() int {
	return int(a.stats.PacketsAcquired) - int(a.stats.PacketsReleased)
}

// LiveFrames returns acquired-minus-released frames.
func (a *Arena) LiveFrames() int {
	return int(a.stats.FramesAcquired) - int(a.stats.FramesReleased)
}

// reclaim moves quarantined objects whose hold time has passed back to
// the free lists. Called from the acquisition paths; strictly-greater
// comparison keeps an object out of circulation for the entire timestamp
// its last arrivals fire at.
func (a *Arena) reclaim() {
	if len(a.quarPkts) == 0 && len(a.quarFrames) == 0 {
		return
	}
	now := a.clock()
	i := 0
	for i < len(a.quarPkts) && now > a.quarPkts[i].readyAt {
		a.scrubPacket(a.quarPkts[i].p)
		a.pkts = append(a.pkts, a.quarPkts[i].p)
		a.quarPkts[i].p = nil
		i++
	}
	if i > 0 {
		n := copy(a.quarPkts, a.quarPkts[i:])
		a.quarPkts = a.quarPkts[:n]
	}
	i = 0
	for i < len(a.quarFrames) && now > a.quarFrames[i].readyAt {
		a.scrubFrame(a.quarFrames[i].f)
		a.frames = append(a.frames, a.quarFrames[i].f)
		a.quarFrames[i].f = nil
		i++
	}
	if i > 0 {
		n := copy(a.quarFrames, a.quarFrames[i:])
		a.quarFrames = a.quarFrames[:n]
	}
}

// --- packet acquisition ---

// NewPacket returns a zeroed arena-owned packet.
func (a *Arena) NewPacket() *Packet {
	a.stats.PacketsAcquired++
	a.reclaim()
	if n := len(a.pkts); n > 0 {
		p := a.pkts[n-1]
		a.pkts[n-1] = nil
		a.pkts = a.pkts[:n-1]
		if a.Check && p.UID != PoisonUID {
			a.stats.PoisonTrips++
		}
		*p = Packet{aflags: flagArena}
		return p
	}
	return &Packet{aflags: flagArena}
}

// NewPacketFrom copies tmpl into an arena-owned packet. Slices and the
// TCP header carried by tmpl stay caller-owned — they are left alone when
// the packet is released. Use SetSourceRoute / StartTrail / AttachTCP
// afterwards for pooled components.
func (a *Arena) NewPacketFrom(tmpl Packet) *Packet {
	p := a.NewPacket()
	fl := p.aflags
	*p = tmpl
	p.aflags = fl
	return p
}

// Copy is the pooled analogue of Packet.Copy: a shallow copy with a fresh
// UID, deep-copied SourceRoute/Trail (into recycled backing arrays) and a
// pooled TCP header. Routing headers are shared, exactly like Packet.Copy.
func (a *Arena) Copy(p *Packet, uids *UIDSource) *Packet {
	q := a.NewPacket()
	fl := q.aflags
	*q = *p
	q.aflags = fl
	q.UID = uids.Next()
	if p.SourceRoute != nil {
		if q.SourceRoute = a.AcquireRoute(p.SourceRoute); q.SourceRoute != nil {
			q.aflags |= flagOwnsSR
		}
	}
	if p.Trail != nil {
		if q.Trail = a.AcquireRoute(p.Trail); q.Trail != nil {
			q.aflags |= flagOwnsTrail
		}
	}
	if p.TCP != nil {
		h := a.getTCP()
		*h = *p.TCP
		q.TCP = h
		q.aflags |= flagOwnsTCP
	}
	return q
}

// SetSourceRoute points p's source route at an arena-owned copy of route,
// recycling any previous arena-owned backing. The caller's slice is never
// retained, so a route aliased into a retained routing header (MTS Check,
// DSR cache entries) stays untouched when p is later released.
func (a *Arena) SetSourceRoute(p *Packet, route []NodeID) {
	if p.aflags&flagOwnsSR != 0 {
		a.ReleaseRoute(p.SourceRoute)
		p.aflags &^= flagOwnsSR
	}
	if p.SourceRoute = a.AcquireRoute(route); p.SourceRoute != nil {
		p.aflags |= flagOwnsSR
	}
}

// StartTrail resets p's trail to [first] in arena-owned storage, recycling
// any previous arena-owned backing (the per-data-packet "Trail =
// []NodeID{self}" pattern at MTS origination points).
func (a *Arena) StartTrail(p *Packet, first NodeID) {
	if p.aflags&flagOwnsTrail != 0 {
		a.ReleaseRoute(p.Trail)
		p.aflags &^= flagOwnsTrail
	}
	p.Trail = append(a.getRouteBuf(), first)
	p.aflags |= flagOwnsTrail
}

// AttachTCP attaches a zeroed pooled TCP header to p and returns it for
// the caller to fill.
func (a *Arena) AttachTCP(p *Packet) *TCPHeader {
	h := a.getTCP()
	p.TCP = h
	p.aflags |= flagOwnsTCP
	return h
}

// --- packet release ---

// Release returns a dead packet (and its arena-owned components) to the
// free lists. Safe on nil and foreign packets. The
// caller must hold the only live reference: received packets are borrowed
// from the transmitting MAC and must never be released by a receiver.
func (a *Arena) Release(p *Packet) { a.release(p, 0) }

// ReleaseAfter releases p but keeps its storage out of circulation until
// the simulation clock passes now+hold — for packets whose final
// transmission is still propagating to receivers when the owner lets go
// (broadcast payloads; the hold is the channel's maximum propagation
// delay).
func (a *Arena) ReleaseAfter(p *Packet, hold sim.Duration) { a.release(p, hold) }

func (a *Arena) release(p *Packet, hold sim.Duration) {
	if p == nil {
		return
	}
	if p.aflags&flagReleased != 0 {
		a.stats.DoubleReleases++
		return
	}
	if p.aflags&flagArena == 0 {
		a.stats.ForeignReleases++
		return
	}
	a.stats.PacketsReleased++
	p.aflags |= flagReleased
	if hold > 0 {
		// The packet's last transmission is still propagating: borrowed
		// readers (arrival events, taps, receivers) will touch it until
		// now+hold, so scrubbing and recycling wait for reclaim.
		if !a.Pooling {
			return // accounted; storage goes to the GC
		}
		a.quarPkts = append(a.quarPkts, pktQuar{p: p, readyAt: a.clock().Add(hold)})
		return
	}
	a.scrubPacket(p)
	if a.Pooling {
		a.pkts = append(a.pkts, p)
	}
}

// scrubPacket recycles a dead packet's arena-owned components and poisons
// its fields. Must only run once no borrowed reader can touch p again.
func (a *Arena) scrubPacket(p *Packet) {
	if p.aflags&flagOwnsSR != 0 {
		a.ReleaseRoute(p.SourceRoute)
	}
	if p.aflags&flagOwnsTrail != 0 {
		a.ReleaseRoute(p.Trail)
	}
	if p.aflags&flagOwnsTCP != 0 {
		a.putTCP(p.TCP)
	}
	if a.Pooling || a.Check {
		poisonPacket(p)
	}
	p.aflags = flagArena | flagReleased
}

func poisonPacket(p *Packet) {
	p.UID = PoisonUID
	p.Kind = poisonKind
	p.Size = -1
	p.Src, p.Dst = poisonNode, poisonNode
	p.TTL = -1
	p.CreatedAt = -1
	p.DataID = PoisonUID
	p.TCP = nil
	p.Routing = nil
	p.SourceRoute = nil
	p.SRIndex = -1
	p.PathID = -1
	p.Trail = nil
}

// --- frames ---

// NewFrame returns a zeroed arena-owned MAC frame.
func (a *Arena) NewFrame() *Frame {
	a.stats.FramesAcquired++
	a.reclaim()
	if n := len(a.frames); n > 0 {
		f := a.frames[n-1]
		a.frames[n-1] = nil
		a.frames = a.frames[:n-1]
		if a.Check && f.UID != PoisonUID {
			a.stats.PoisonTrips++
		}
		*f = Frame{aflags: flagArena}
		return f
	}
	return &Frame{aflags: flagArena}
}

// NewFrameFrom copies tmpl into an arena-owned frame.
func (a *Arena) NewFrameFrom(tmpl Frame) *Frame {
	f := a.NewFrame()
	fl := f.aflags
	*f = tmpl
	f.aflags = fl
	return f
}

// ReleaseFrame returns a dead frame to the free list. The payload is not
// touched — it stays owned by the MAC job that is transmitting it.
func (a *Arena) ReleaseFrame(f *Frame) { a.releaseFrame(f, 0) }

// ReleaseFrameAfter releases a frame whose arrivals are still propagating
// (every frame that actually went on the air).
func (a *Arena) ReleaseFrameAfter(f *Frame, hold sim.Duration) { a.releaseFrame(f, hold) }

func (a *Arena) releaseFrame(f *Frame, hold sim.Duration) {
	if f == nil {
		return
	}
	if f.aflags&flagReleased != 0 {
		a.stats.DoubleReleases++
		return
	}
	if f.aflags&flagArena == 0 {
		a.stats.ForeignReleases++
		return
	}
	a.stats.FramesReleased++
	f.aflags |= flagReleased
	if hold > 0 {
		// Arrivals of this frame are still in flight; scrub at reclaim.
		if !a.Pooling {
			return
		}
		a.quarFrames = append(a.quarFrames, frameQuar{f: f, readyAt: a.clock().Add(hold)})
		return
	}
	a.scrubFrame(f)
	if a.Pooling {
		a.frames = append(a.frames, f)
	}
}

// scrubFrame poisons a dead frame. Must only run once no borrowed reader
// (in-flight arrival, tap) can touch f again. The payload is never
// released here — it stays owned by the MAC job transmitting it.
func (a *Arena) scrubFrame(f *Frame) {
	if a.Pooling || a.Check {
		f.UID = PoisonUID
		f.Kind = FrameKind(0xEE)
		f.TxFrom, f.TxTo = poisonNode, poisonNode
		f.Payload = nil
		f.NAV = -1
	}
	f.aflags = flagArena | flagReleased
}

// --- component free lists ---

func (a *Arena) getRouteBuf() []NodeID {
	if n := len(a.routes); n > 0 {
		buf := a.routes[n-1]
		a.routes[n-1] = nil
		a.routes = a.routes[:n-1]
		return buf[:0]
	}
	return nil
}

// AcquireRoute copies src into an arena-owned route buffer. Like
// CloneRoute (and Packet.Copy) it maps empty input to nil, so pooled and
// plain copies are indistinguishable. Packets take their SourceRoute and
// Trail copies from it; router state (DSR's route cache, SMR's route
// sets) uses it directly, as the control-plane analogue of
// SetSourceRoute. Such a caller owns the returned slice and must hand it
// back with ReleaseRoute exactly once (on eviction, flush or retire);
// unlike packet components there is no ownership flag, so a double
// release would put the same backing array on the free list twice and
// alias two later acquisitions.
func (a *Arena) AcquireRoute(src []NodeID) []NodeID {
	if len(src) == 0 {
		return nil
	}
	return append(a.getRouteBuf(), src...)
}

// ReleaseRoute returns a route buffer obtained from AcquireRoute to the
// free list. The buffer must not be referenced afterwards — in Check
// mode it is poisoned, otherwise it is handed to the next acquirer as-is.
// Safe on nil slices.
func (a *Arena) ReleaseRoute(buf []NodeID) {
	if !a.Pooling || cap(buf) == 0 || len(a.routes) >= routePoolCap {
		return
	}
	if a.Check {
		for i := range buf {
			buf[i] = poisonNode
		}
	}
	a.routes = append(a.routes, buf[:0])
}

func (a *Arena) getTCP() *TCPHeader {
	if n := len(a.tcps); n > 0 {
		h := a.tcps[n-1]
		a.tcps[n-1] = nil
		a.tcps = a.tcps[:n-1]
		*h = TCPHeader{}
		return h
	}
	return &TCPHeader{}
}

func (a *Arena) putTCP(h *TCPHeader) {
	if !a.Pooling || h == nil || len(a.tcps) >= routePoolCap {
		return
	}
	h.Flow, h.Seq, h.Ack, h.SentAt = -1, -1, false, -1 // poison
	a.tcps = append(a.tcps, h)
}
