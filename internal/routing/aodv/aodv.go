// Package aodv implements the Ad hoc On-demand Distance Vector routing
// protocol (Perkins, Royer & Das) as one of the paper's two baselines:
// on-demand route discovery by flooded RREQs, destination sequence numbers
// for loop freedom and freshness, hop-by-hop forwarding tables built by
// RREPs, and broadcast RERRs driven by MAC-layer link-failure feedback.
// Hello beacons are not used — link breakage detection comes from the MAC,
// matching the paper's setup (§III-E).
package aodv

import (
	"slices"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/sim"
)

// Config holds AODV parameters following draft-ietf-manet-aodv-10 (the
// paper's reference [15]) with ns-2 conventions.
type Config struct {
	ActiveRouteTimeout sim.Duration
	// RREQRetries counts full-diameter attempts after the expanding ring
	// reaches NetDiameter (RREQ_RETRIES in the draft).
	RREQRetries int
	SendBufCap  int
	SendBufAge  sim.Duration
	// AllowIntermediateReply lets intermediate nodes answer RREQs from
	// fresh-enough cached routes (standard AODV behaviour).
	AllowIntermediateReply bool

	// Expanding-ring search (draft §8.4). Disable to flood network-wide
	// immediately (ablation).
	ExpandingRing     bool
	TTLStart          int
	TTLIncrement      int
	TTLThreshold      int
	NetDiameter       int
	NodeTraversalTime sim.Duration
}

// DefaultConfig returns the parameter set used in the experiments
// (draft-10 defaults: TTL_START 1, TTL_INCREMENT 2, TTL_THRESHOLD 7,
// NET_DIAMETER 35, NODE_TRAVERSAL_TIME 40 ms, RREQ_RETRIES 2).
func DefaultConfig() Config {
	return Config{
		ActiveRouteTimeout:     10 * sim.Second,
		RREQRetries:            2,
		SendBufCap:             64,
		SendBufAge:             8 * sim.Second,
		AllowIntermediateReply: true,
		ExpandingRing:          true,
		TTLStart:               1,
		TTLIncrement:           2,
		TTLThreshold:           7,
		NetDiameter:            35,
		NodeTraversalTime:      40 * sim.Millisecond,
	}
}

// ringTraversalTime is the draft's RING_TRAVERSAL_TIME: how long to wait
// for a reply from a TTL-bounded flood (TIMEOUT_BUFFER = 2).
func (c Config) ringTraversalTime(ttl int) sim.Duration {
	return 2 * c.NodeTraversalTime * sim.Duration(ttl+2)
}

// Control packet wire sizes (bytes), matching ns-2's AODV packet formats.
const (
	rreqBytes = 48
	rrepBytes = 44
	rerrBase  = 20
	rerrPer   = 8
)

// RREQ is the route-request header.
type RREQ struct {
	Orig           packet.NodeID
	OrigSeq        uint32
	BID            uint32
	Target         packet.NodeID
	TargetSeq      uint32
	TargetSeqKnown bool
	Hops           int
}

// RREP is the route-reply header, travelling replier → originator.
type RREP struct {
	Orig      packet.NodeID // RREQ originator (discovery requester)
	Target    packet.NodeID // destination the route leads to
	TargetSeq uint32
	Hops      int // distance from the replier to Target
}

// RERR lists destinations that became unreachable through the sender.
type RERR struct {
	Unreachable []Unreachable
}

// Unreachable is one RERR entry.
type Unreachable struct {
	Dst packet.NodeID
	Seq uint32
}

type routeEntry struct {
	next packet.NodeID
	// nexts holds every equal-cost next hop for the installed route, next
	// included, in arrival order: next hops of offers exactly as fresh and
	// exactly as short as the installed route — the alternatives plain
	// AODV throws away. On link failure a surviving one repairs the entry
	// in place instead of invalidating it, skipping the RERR and the
	// rediscovery flood. Every accepted offer resets the set to its own
	// next hop, so it never outlives the sequence number it was heard at.
	nexts    []packet.NodeID
	hops     int
	seq      uint32
	validSeq bool
	valid    bool
	expiry   sim.Time
}

// ring is one destination's expanding-ring search state.
type ring struct {
	ttl        int // current ring TTL
	fullFloods int // attempts at NetDiameter TTL
}

// Router is one node's AODV instance.
type Router struct {
	env   routing.Env
	cfg   Config
	ar    *packet.Arena       // the env's packet arena (nil: plain allocation)
	trust routing.TrustOracle // nil: legacy behaviour, bit-for-bit

	seq uint32
	bid uint32

	table  map[packet.NodeID]*routeEntry
	seen   map[rreqKey]bool
	rings  map[packet.NodeID]ring // by destination, set on each discovery's first flood
	buffer *routing.SendBuffer
	disc   *routing.Discovery[*Router]

	// Stats
	Discoveries uint64
	RERRsSent   uint64
	Repairs     uint64 // link failures absorbed by an equal-cost next hop
}

type rreqKey struct {
	orig packet.NodeID
	bid  uint32
}

// New creates an AODV router bound to env.
func New(env routing.Env, cfg Config) *Router {
	r := &Router{
		env:    env,
		cfg:    cfg,
		ar:     routing.ArenaOf(env),
		trust:  routing.TrustOf(env),
		table:  make(map[packet.NodeID]*routeEntry),
		seen:   make(map[rreqKey]bool),
		rings:  make(map[packet.NodeID]ring),
		buffer: routing.NewSendBuffer(env, cfg.SendBufCap, cfg.SendBufAge),
	}
	r.disc = routing.NewDiscovery(env, r.buffer, r, &discoveryPolicy)
	return r
}

// discoveryPolicy is AODV's part of route discovery: the expanding-ring
// search, and a live table entry ends it.
var discoveryPolicy = routing.DiscoveryPolicy[*Router]{
	Flood:     (*Router).floodRREQ,
	Timeout:   (*Router).ringTimeout,
	Retry:     (*Router).widenRing,
	HaveRoute: func(r *Router, dst packet.NodeID) bool { return r.route(dst) != nil },
}

// Retire implements routing.Retirer: hand back buffered packets at run end.
func (r *Router) Retire() { r.buffer.Retire() }

// Name implements routing.Protocol.
func (r *Router) Name() string { return "AODV" }

// Start implements routing.Protocol. AODV is purely reactive; nothing to do.
func (r *Router) Start() {}

// route returns a live entry for dst, treating expired entries as invalid.
func (r *Router) route(dst packet.NodeID) *routeEntry {
	e := r.table[dst]
	if e == nil || !e.valid || e.expiry < r.env.Scheduler().Now() {
		return nil
	}
	return e
}

// touch refreshes the lifetime of a route in active use.
func (r *Router) touch(e *routeEntry) {
	exp := r.env.Scheduler().Now().Add(r.cfg.ActiveRouteTimeout)
	if exp > e.expiry {
		e.expiry = exp
	}
}

// update installs or refreshes a route if the new information is fresher
// (higher sequence number) or equally fresh but shorter — the AODV
// loop-freedom rule.
//
// With the trust defence active, an offer through a low-trust neighbour
// is inflated by the neighbour's distrust penalty before it competes, so
// equally fresh routes through clean neighbours win even at more real
// hops. Inflation only ever *increases* this node's stored (and onward
// advertised) distance, so AODV's strictly-decreasing-distance loop
// invariant is preserved.
func (r *Router) update(dst, next packet.NodeID, hops int, seq uint32, validSeq bool) *routeEntry {
	if r.trust != nil {
		hops += int(r.trust.Cost(next) + 0.5)
	}
	e := r.table[dst]
	if e == nil {
		e = &routeEntry{}
		r.table[dst] = e
	}
	accept := !e.valid ||
		(validSeq && e.validSeq && routing.SeqNewer(seq, e.seq)) ||
		(validSeq && !e.validSeq) ||
		(validSeq == e.validSeq && seq == e.seq && hops < e.hops) ||
		(!validSeq && !e.validSeq)
	if !accept {
		// A rejected offer that matches the installed route's freshness and
		// length exactly is an equal-cost alternative: remember its next hop
		// for in-place repair when the installed one breaks. Equal sequence
		// number plus equal hop count preserves AODV's distance invariant,
		// so switching to it later cannot form a loop.
		if validSeq && e.validSeq && seq == e.seq && hops == e.hops {
			e.addNext(next)
		}
		return e
	}
	// Fresher, or equally fresh and shorter: every remembered alternative
	// is now worse than the new route.
	e.next = next
	e.nexts = append(e.nexts[:0], next)
	e.hops = hops
	e.seq = seq
	e.validSeq = validSeq
	e.valid = true
	r.touch(e)
	return e
}

// addNext records an equal-cost next hop unless it is already known.
func (e *routeEntry) addNext(next packet.NodeID) {
	if !slices.Contains(e.nexts, next) {
		e.nexts = append(e.nexts, next)
	}
}

// Send implements routing.Protocol: originate an end-to-end packet.
func (r *Router) Send(p *packet.Packet) {
	if p.Dst == r.env.ID() {
		r.env.DeliverLocal(p, r.env.ID())
		r.ar.Release(p)
		return
	}
	if e := r.route(p.Dst); e != nil {
		r.touch(e)
		r.env.SendMac(p, e.next)
		return
	}
	r.disc.Queue(p)
}

// initialTTL starts the expanding ring at TTL_START, or at the last known
// hop count plus TTL_INCREMENT when the route just broke (draft §8.4).
func (r *Router) initialTTL(dst packet.NodeID) int {
	if !r.cfg.ExpandingRing {
		return r.cfg.NetDiameter
	}
	ttl := r.cfg.TTLStart
	if e := r.table[dst]; e != nil && e.hops > 0 && e.hops+r.cfg.TTLIncrement < r.cfg.TTLThreshold {
		ttl = e.hops + r.cfg.TTLIncrement
	}
	return ttl
}

// floodRREQ broadcasts a route request for dst bounded by the current
// ring TTL; the first flood of a discovery starts the ring.
func (r *Router) floodRREQ(dst packet.NodeID, n int) {
	if n == 1 {
		r.rings[dst] = ring{ttl: r.initialTTL(dst)}
	}
	r.Discoveries++
	r.seq++
	r.bid++
	h := &RREQ{
		Orig:    r.env.ID(),
		OrigSeq: r.seq,
		BID:     r.bid,
		Target:  dst,
	}
	if e := r.table[dst]; e != nil && e.validSeq {
		h.TargetSeq = e.seq
		h.TargetSeqKnown = true
	}
	r.seen[rreqKey{h.Orig, h.BID}] = true
	routing.Originate(r.env, r.ar, packet.Broadcast, packet.Packet{
		Kind: packet.KindRREQ, Size: rreqBytes, Dst: dst, TTL: r.rings[dst].ttl, Routing: h})
}

// ringTimeout is how long a flood at the current ring TTL waits for a
// reply.
func (r *Router) ringTimeout(dst packet.NodeID, _ int) sim.Duration {
	g := r.rings[dst]
	timeout := r.cfg.ringTraversalTime(g.ttl)
	if g.ttl >= r.cfg.NetDiameter {
		// Full-diameter attempts back off exponentially (draft §8.3).
		timeout <<= g.fullFloods
	}
	return timeout
}

// widenRing moves an unanswered search to the next ring, or gives up
// after RREQRetries extra full-diameter floods.
func (r *Router) widenRing(dst packet.NodeID, _ int) bool {
	g := r.rings[dst]
	switch {
	case g.ttl >= r.cfg.NetDiameter:
		g.fullFloods++
		if g.fullFloods > r.cfg.RREQRetries {
			return false
		}
	case g.ttl >= r.cfg.TTLThreshold:
		g.ttl = r.cfg.NetDiameter
	default:
		g.ttl += r.cfg.TTLIncrement
	}
	r.rings[dst] = g
	return true
}

// Receive implements routing.Protocol.
func (r *Router) Receive(p *packet.Packet, from packet.NodeID) {
	switch p.Kind {
	case packet.KindRREQ:
		r.handleRREQ(p, from)
	case packet.KindRREP:
		r.handleRREP(p, from)
	case packet.KindRERR:
		r.handleRERR(p, from)
	default:
		r.handleData(p, from)
	}
}

func (r *Router) handleRREQ(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RREQ)
	if h.Orig == r.env.ID() {
		return
	}
	key := rreqKey{h.Orig, h.BID}
	if r.seen[key] {
		// A duplicate copy is not relayed, but it is free topology
		// intelligence: a neighbour rebroadcasting the same flood at the
		// same hop count sits at the same distance from the originator
		// as our installed reverse next hop — an equal-cost alternative
		// under exactly the invariant update's harvest uses. Duplicates
		// are where such alternatives actually surface (the first copy
		// installs the route; later copies arrive via other neighbours),
		// so without this the entry would hold only the installed next
		// hop. Only the equal-cost set grows: the installed route,
		// relaying decision and RNG streams are untouched.
		if e := r.route(h.Orig); e != nil && e.validSeq &&
			e.seq == h.OrigSeq && e.hops == h.Hops+1 {
			e.addNext(from)
		}
		return
	}
	r.seen[key] = true

	// Reverse route to the originator through the neighbour we heard.
	r.update(h.Orig, from, h.Hops+1, h.OrigSeq, true)

	if h.Target == r.env.ID() {
		// AODV: the destination ensures its sequence number is at least
		// the one the requester asked about, then replies.
		if h.TargetSeqKnown && routing.SeqNewer(h.TargetSeq, r.seq) {
			r.seq = h.TargetSeq
		}
		r.seq++
		r.sendRREP(h.Orig, r.env.ID(), r.seq, 0, from)
		return
	}

	if r.cfg.AllowIntermediateReply {
		if e := r.route(h.Target); e != nil && e.validSeq &&
			(!h.TargetSeqKnown || !routing.SeqNewer(h.TargetSeq, e.seq)) {
			r.sendRREP(h.Orig, h.Target, e.seq, e.hops, from)
			return
		}
	}

	if p.TTL <= 1 {
		return
	}
	nh := *h
	nh.Hops++
	routing.Rebroadcast(r.env, r.ar, p, &nh, p.Size)
}

func (r *Router) sendRREP(orig, target packet.NodeID, targetSeq uint32, hops int, via packet.NodeID) {
	routing.Originate(r.env, r.ar, via, packet.Packet{Kind: packet.KindRREP, Size: rrepBytes, Dst: orig,
		TTL: routing.DefaultTTL, Routing: &RREP{Orig: orig, Target: target, TargetSeq: targetSeq, Hops: hops}})
}

func (r *Router) handleRREP(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RREP)
	// Forward route to the target through the neighbour that relayed the
	// reply.
	r.update(h.Target, from, h.Hops+1, h.TargetSeq, true)

	if h.Orig == r.env.ID() {
		r.completeDiscovery(h.Target)
		return
	}
	e := r.route(h.Orig)
	if e == nil {
		return // reverse route evaporated; reply is lost
	}
	r.touch(e)
	fwd := r.ar.Copy(p, r.env.UIDs())
	fwd.TTL--
	nh := *h
	nh.Hops++
	fwd.Routing = &nh
	if fwd.TTL > 0 {
		r.env.SendMac(fwd, e.next)
	} else {
		r.ar.Release(fwd)
	}
}

func (r *Router) completeDiscovery(dst packet.NodeID) {
	r.disc.Complete(dst)
	e := r.route(dst)
	if e == nil {
		return
	}
	for _, q := range r.buffer.Pop(dst) {
		r.touch(e)
		r.env.SendMac(q, e.next)
	}
}

func (r *Router) handleRERR(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RERR)
	var propagate []Unreachable
	for _, u := range h.Unreachable {
		e := r.table[u.Dst]
		if e != nil && e.valid && e.next == from {
			e.valid = false
			e.seq = u.Seq
			e.validSeq = true
			// The RERR carries a newer sequence number, so every remembered
			// equal-cost next hop for this destination is now stale.
			e.nexts = e.nexts[:0]
			propagate = append(propagate, u)
		}
	}
	if len(propagate) > 0 {
		r.broadcastRERR(propagate)
	}
}

func (r *Router) broadcastRERR(list []Unreachable) {
	r.RERRsSent++
	routing.Originate(r.env, r.ar, packet.Broadcast, packet.Packet{Kind: packet.KindRERR,
		Size: rerrBase + rerrPer*len(list), Dst: packet.Broadcast, TTL: 1, Routing: &RERR{Unreachable: list}})
}

func (r *Router) handleData(p *packet.Packet, from packet.NodeID) {
	if p.Dst == r.env.ID() {
		r.env.DeliverLocal(p, from)
		return
	}
	if p.TTL <= 1 {
		r.env.NotifyDrop(p, "ttl")
		return
	}
	e := r.route(p.Dst)
	if e == nil {
		// No route at an intermediate node: report back so upstream
		// nodes and the source stop using us.
		r.env.NotifyDrop(p, "no-route")
		r.broadcastRERR([]Unreachable{{Dst: p.Dst, Seq: r.seqFor(p.Dst)}})
		return
	}
	if p.Kind == packet.KindData {
		r.env.NotifyRelay(p)
	}
	r.touch(e)
	// Refresh the reverse route too: ACKs will flow back.
	if re := r.route(p.Src); re != nil {
		r.touch(re)
	}
	fwd := r.ar.Copy(p, r.env.UIDs())
	fwd.TTL--
	r.env.SendMac(fwd, e.next)
}

func (r *Router) seqFor(dst packet.NodeID) uint32 {
	if e := r.table[dst]; e != nil {
		return e.seq + 1
	}
	return 0
}

// LinkFailed implements routing.Protocol: MAC retry exhaustion toward next.
func (r *Router) LinkFailed(p *packet.Packet, next packet.NodeID) {
	flow := routing.FlowKey(p)
	var lost []Unreachable
	for dst, e := range r.table {
		// The failed neighbour is no longer a candidate for anything.
		e.nexts = slices.DeleteFunc(e.nexts, func(n packet.NodeID) bool { return n == next })
		if e.valid && e.next == next {
			// Repair in place from a surviving equal-cost next hop: same
			// sequence number, same hop count, so the entry stays exactly as
			// fresh and the distance invariant holds — no RERR, no flood.
			if len(e.nexts) > 0 {
				e.next = e.nexts[routing.ECMPIndex(r.env.ID(), dst, flow, len(e.nexts))]
				r.touch(e)
				r.Repairs++
				continue
			}
			e.valid = false
			e.seq++
			e.validSeq = true
			lost = append(lost, Unreachable{Dst: dst, Seq: e.seq})
		}
	}
	r.env.DropQueued(func(_ *packet.Packet, n packet.NodeID) bool { return n == next })

	if len(lost) > 0 {
		r.broadcastRERR(lost)
	}

	// A packet whose route was just repaired in place rides the surviving
	// equal-cost next hop immediately; otherwise a data packet from this
	// very node restarts discovery and transit packets are dropped (no
	// flooding local repair — documented simplification). Ownership of p
	// passed back from the MAC: every branch re-sends, re-buffers or
	// releases it.
	if p.Kind == packet.KindData || p.Kind == packet.KindAck {
		if e := r.route(p.Dst); e != nil {
			// Repaired above: the packet must ride the surviving next hop
			// now — no RREP is coming, so the send buffer would never drain.
			r.touch(e)
			r.env.SendMac(p, e.next)
			return
		}
		if p.Src == r.env.ID() {
			r.disc.Queue(p)
			return
		}
		r.env.NotifyDrop(p, "link-failure")
	}
	r.ar.Release(p)
}

// Buffered reports how many data packets are parked in the send buffer
// awaiting discovery (retire-drainage audits).
func (r *Router) Buffered() int { return r.buffer.Size() }

// RouteTo exposes the current next hop for tests and visualisation.
func (r *Router) RouteTo(dst packet.NodeID) (next packet.NodeID, hops int, ok bool) {
	e := r.route(dst)
	if e == nil {
		return 0, 0, false
	}
	return e.next, e.hops, true
}

var _ routing.Protocol = (*Router)(nil)
