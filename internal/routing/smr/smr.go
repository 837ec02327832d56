// Package smr implements Split Multipath Routing (Lee & Gerla, ICC 2001)
// — the multipath protocol the paper's related-work section (§II) builds
// its motivation on. SMR discovers two maximally disjoint routes per
// destination:
//
//   - intermediate nodes re-broadcast duplicate RREQs that arrived over a
//     different incoming link with a hop count no larger than the first
//     copy (instead of dropping all duplicates), so disjoint route
//     records reach the destination;
//   - the destination replies immediately to the minimum-delay (first)
//     RREQ, then waits a short window, selects the arrived route that is
//     maximally node-disjoint from the first, and sends a second RREP;
//   - the source uses both routes.
//
// Two data-plane modes reproduce the two schemes the paper discusses:
//
//   - ModeSplit (SMR proper): data packets alternate over both routes
//     per packet. Lim et al. (ICC 2003) showed this hurts TCP — the
//     reordering triggers unnecessary congestion control — which is the
//     result the paper cites to argue for MTS's one-active-route design.
//   - ModeBackup (Lim's backup-path scheme): one route is primary, the
//     second is a standby used only after the primary breaks.
package smr

import (
	"slices"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/sim"
)

// Mode selects the data-plane policy over the two discovered routes.
type Mode int

// Data-plane modes.
const (
	ModeSplit  Mode = iota // alternate packets across both routes (SMR)
	ModeBackup             // primary + standby (Lim's backup scheme)
)

// Config holds SMR parameters.
type Config struct {
	Mode Mode
	// SelectWait is how long the destination collects RREQ copies before
	// choosing the maximally disjoint second route.
	SelectWait       sim.Duration
	DiscoveryRetries int
	DiscoveryTimeout sim.Duration
	SendBufCap       int
	SendBufAge       sim.Duration
}

// DefaultConfig returns SMR defaults (split mode, 100 ms selection window).
func DefaultConfig() Config {
	return Config{
		Mode:             ModeSplit,
		SelectWait:       100 * sim.Millisecond,
		DiscoveryRetries: 3,
		DiscoveryTimeout: sim.Second,
		SendBufCap:       64,
		SendBufAge:       8 * sim.Second,
	}
}

// Control packet sizes (bytes).
const (
	rreqBase = 16
	rrepBase = 16
	rerrSize = 24
	addrSize = 4
)

// RREQ is the SMR route request with its accumulated route record.
type RREQ struct {
	Orig   packet.NodeID
	Target packet.NodeID
	ID     uint32
	Record []packet.NodeID // traversed nodes, starting with Orig
}

// RREP carries one complete route back to the originator.
type RREP struct {
	Route []packet.NodeID // Orig … Target
	Index int             // 0 = first (min delay), 1 = disjoint second
	ID    uint32
}

// RERR reports a broken link to the source of a failed packet.
type RERR struct {
	From, To packet.NodeID
	ID       uint32 // discovery the broken route belonged to
}

// rreqSeen is the per-request forwarding state of an intermediate node.
type rreqSeen struct {
	firstFrom packet.NodeID
	firstHops int
	count     int
}

// collectState is the destination's per-request selection window.
type collectState struct {
	id      uint32
	first   []packet.NodeID
	others  [][]packet.NodeID
	timer   *sim.Event
	replied bool
}

// Router is one node's SMR instance.
type Router struct {
	env   routing.Env
	cfg   Config
	ar    *packet.Arena       // the env's packet arena (nil: plain allocation)
	trust routing.TrustOracle // nil: legacy selection, bit-for-bit

	reqID   uint32
	seen    map[seenKey]*rreqSeen
	collect map[packet.NodeID]*collectState // by originator
	buffer  *routing.SendBuffer
	disc    *routing.Discovery[*Router]

	// routes[dst] holds up to two active source routes. The route slices
	// are arena-owned (AcquireRoute) — they are private copies, never
	// shared into routing headers, released exactly once when a route is
	// dropped, its set replaced, or the router retired. The
	// collectState routes are deliberately NOT arena-owned: the selection
	// window shares them into in-flight RREP headers.
	routes map[packet.NodeID]*routeSet

	// rsPool is a free list of emptied routeSet structs, refilled by link
	// removal and by drainRoutes.
	rsPool []*routeSet

	// Stats
	Discoveries  uint64
	SecondRoutes uint64
	SplitToggles uint64
}

type routeSet struct {
	id     uint32 // discovery the routes belong to
	routes [][]packet.NodeID
	next   int // round-robin pointer (split mode)
}

type seenKey struct {
	orig packet.NodeID
	id   uint32
}

// New creates an SMR router bound to env.
func New(env routing.Env, cfg Config) *Router {
	r := &Router{
		env:     env,
		cfg:     cfg,
		ar:      routing.ArenaOf(env),
		trust:   routing.TrustOf(env),
		seen:    make(map[seenKey]*rreqSeen),
		collect: make(map[packet.NodeID]*collectState),
		routes:  make(map[packet.NodeID]*routeSet),
		buffer:  routing.NewSendBuffer(env, cfg.SendBufCap, cfg.SendBufAge),
	}
	r.disc = routing.NewDiscovery(env, r.buffer, r, &discoveryPolicy)
	return r
}

// discoveryPolicy is SMR's part of route discovery: DiscoveryTimeout
// doubling per attempt, DiscoveryRetries attempts, and any route in the
// set ends the search.
var discoveryPolicy = routing.DiscoveryPolicy[*Router]{
	Flood:     (*Router).floodRREQ,
	Timeout:   func(r *Router, _ packet.NodeID, n int) sim.Duration { return r.cfg.DiscoveryTimeout << (n - 1) },
	Retry:     func(r *Router, _ packet.NodeID, n int) bool { return n < r.cfg.DiscoveryRetries },
	HaveRoute: func(r *Router, dst packet.NodeID) bool { return r.RouteCount(dst) > 0 },
}

// drainRoutes releases every route-set buffer to the arena and parks the
// emptied routeSet structs for reuse. Idempotent.
func (r *Router) drainRoutes() {
	for dst, rs := range r.routes {
		r.emptyRouteSet(rs)
		rs.id = 0
		r.rsPool = append(r.rsPool, rs)
		delete(r.routes, dst)
	}
}

// emptyRouteSet releases rs's routes and resets its round-robin pointer.
func (r *Router) emptyRouteSet(rs *routeSet) {
	for i, route := range rs.routes {
		r.ar.ReleaseRoute(route)
		rs.routes[i] = nil
	}
	rs.routes = rs.routes[:0]
	rs.next = 0
}

// newRouteSet takes an empty routeSet from the pool, or allocates one.
func (r *Router) newRouteSet(id uint32) *routeSet {
	if n := len(r.rsPool); n > 0 {
		rs := r.rsPool[n-1]
		r.rsPool[n-1] = nil
		r.rsPool = r.rsPool[:n-1]
		rs.id = id
		return rs
	}
	return &routeSet{id: id}
}

// Retire implements routing.Retirer: hand back buffered packets and the
// route sets' arena-owned buffers at run end.
func (r *Router) Retire() {
	r.buffer.Retire()
	r.drainRoutes()
}

// Name implements routing.Protocol.
func (r *Router) Name() string { return "SMR" }

// Start implements routing.Protocol.
func (r *Router) Start() {}

// Send implements routing.Protocol.
func (r *Router) Send(p *packet.Packet) {
	self := r.env.ID()
	if p.Dst == self {
		r.env.DeliverLocal(p, self)
		r.ar.Release(p)
		return
	}
	if rs := r.routes[p.Dst]; rs != nil && len(rs.routes) > 0 {
		route := r.pickRoute(p.Dst, rs, routing.FlowKey(p))
		routing.SendAlong(r.env, r.ar, p, route)
		return
	}
	r.disc.Queue(p)
}

// pickRoute applies the data-plane mode. In backup mode a pair of equally
// long routes is a genuine equal-cost set, so the flow's hash picks the
// route — each flow stays pinned to one of the two (no reordering), while
// different flows spread across both. An unequal pair keeps strict
// primary/standby semantics. Split mode keeps its per-packet round-robin:
// alternation is the scheme's defining (and deliberately TCP-hostile)
// behaviour.
func (r *Router) pickRoute(dst packet.NodeID, rs *routeSet, flow uint64) []packet.NodeID {
	// Trust defence: both modes collapse to the route with the lowest
	// trust-weighted cost (hop count plus per-relay distrust penalty) —
	// a split that keeps feeding a distrusted relay half the stream would
	// defeat the defence, so trusted selection supersedes alternation.
	if r.trust != nil && len(rs.routes) > 1 {
		best, bestCost := rs.routes[0], routing.TrustCost(r.trust, rs.routes[0])
		for _, route := range rs.routes[1:] {
			if c := routing.TrustCost(r.trust, route); c < bestCost {
				best, bestCost = route, c
			}
		}
		return best
	}
	if r.cfg.Mode == ModeBackup || len(rs.routes) == 1 {
		if len(rs.routes) > 1 && len(rs.routes[1]) == len(rs.routes[0]) {
			return rs.routes[routing.ECMPIndex(r.env.ID(), dst, flow, 2)]
		}
		return rs.routes[0]
	}
	route := rs.routes[rs.next%len(rs.routes)]
	rs.next++
	r.SplitToggles++
	return route
}

// floodRREQ broadcasts a fresh route request for dst.
func (r *Router) floodRREQ(dst packet.NodeID, _ int) {
	r.Discoveries++
	r.reqID++
	self := r.env.ID()
	h := &RREQ{Orig: self, Target: dst, ID: r.reqID, Record: []packet.NodeID{self}}
	r.seen[seenKey{self, h.ID}] = &rreqSeen{firstFrom: self, count: 1}
	routing.Originate(r.env, r.ar, packet.Broadcast, packet.Packet{
		Kind: packet.KindRREQ, Size: rreqBase + addrSize, Dst: dst, TTL: routing.DefaultTTL, Routing: h})
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

// handleRREQ applies SMR's duplicate-forwarding rule.
func (r *Router) handleRREQ(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RREQ)
	self := r.env.ID()
	if h.Orig == self || slices.Contains(h.Record, self) {
		return
	}
	if h.Target == self {
		r.rreqAtDestination(h)
		return
	}
	key := seenKey{h.Orig, h.ID}
	st := r.seen[key]
	hops := len(h.Record)
	switch {
	case st == nil:
		r.seen[key] = &rreqSeen{firstFrom: from, firstHops: hops, count: 1}
	case from != st.firstFrom && hops <= st.firstHops && st.count < 3:
		// SMR rule: forward duplicates from a different incoming link
		// with no larger hop count (bounded to keep the flood finite).
		st.count++
	default:
		return
	}
	if p.TTL <= 1 {
		return
	}
	record := append(packet.CloneRoute(h.Record), self)
	routing.Rebroadcast(r.env, r.ar, p, &RREQ{Orig: h.Orig, Target: h.Target, ID: h.ID, Record: record},
		rreqBase+addrSize*len(record))
}

// rreqAtDestination replies to the first copy immediately and opens the
// selection window for the maximally disjoint second route.
func (r *Router) rreqAtDestination(h *RREQ) {
	self := r.env.ID()
	route := append(packet.CloneRoute(h.Record), self)
	cs := r.collect[h.Orig]
	if cs == nil || cs.id != h.ID {
		if cs != nil && cs.timer != nil {
			r.env.Scheduler().Cancel(cs.timer)
		}
		cs = &collectState{id: h.ID, first: route, replied: true}
		r.collect[h.Orig] = cs
		r.sendRREP(route, 0, h.ID)
		cs.timer = r.env.Scheduler().After(r.cfg.SelectWait, func() {
			cs.timer = nil
			r.selectSecond(h.Orig, cs)
		})
		return
	}
	cs.others = append(cs.others, route)
}

// selectSecond picks the route maximally disjoint from the first (ties:
// shortest, then earliest) and sends the second RREP.
func (r *Router) selectSecond(orig packet.NodeID, cs *collectState) {
	var best []packet.NodeID
	bestOverlap := 1 << 30
	for _, cand := range cs.others {
		ov := overlap(cs.first, cand)
		if ov < bestOverlap || (ov == bestOverlap && best != nil && len(cand) < len(best)) {
			best, bestOverlap = cand, ov
		}
	}
	if best == nil {
		return
	}
	r.SecondRoutes++
	r.sendRREP(best, 1, cs.id)
}

// overlap counts shared intermediate nodes between two routes.
func overlap(a, b []packet.NodeID) int {
	if len(a) < 3 || len(b) < 3 {
		return 0
	}
	set := make(map[packet.NodeID]bool, len(a))
	for _, n := range a[1 : len(a)-1] {
		set[n] = true
	}
	c := 0
	for _, n := range b[1 : len(b)-1] {
		if set[n] {
			c++
		}
	}
	return c
}

func (r *Router) sendRREP(route []packet.NodeID, index int, id uint32) {
	if len(route) < 2 {
		return
	}
	routing.SendSourceRouted(r.env, r.ar, routing.ReverseRoute(route), packet.Packet{Kind: packet.KindRREP,
		Size: rrepBase + addrSize*len(route), Dst: route[0], Routing: &RREP{Route: route, Index: index, ID: id}})
}

func (r *Router) handleRREP(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RREP)
	self := r.env.ID()
	if p.Dst != self {
		routing.ForwardSourceRouted(r.env, r.ar, p)
		return
	}
	dst := h.Route[len(h.Route)-1]
	rs := r.routes[dst]
	if rs == nil {
		rs = r.newRouteSet(h.ID)
		r.routes[dst] = rs
	} else if rs.id != h.ID {
		// A newer discovery supersedes the set: release the stale routes
		// and reuse the struct.
		r.emptyRouteSet(rs)
		rs.id = h.ID
	}
	for _, existing := range rs.routes {
		if slices.Equal(existing, h.Route) {
			return
		}
	}
	if len(rs.routes) < 2 {
		rs.routes = append(rs.routes, r.ar.AcquireRoute(h.Route))
	}
	r.completeDiscovery(dst)
}

func (r *Router) completeDiscovery(dst packet.NodeID) {
	r.disc.Complete(dst)
	rs := r.routes[dst]
	if rs == nil || len(rs.routes) == 0 {
		return
	}
	for _, q := range r.buffer.Pop(dst) {
		routing.SendAlong(r.env, r.ar, q, r.pickRoute(dst, rs, routing.FlowKey(q)))
	}
}

func (r *Router) handleRERR(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RERR)
	self := r.env.ID()
	r.dropRoutesVia(h.From, h.To)
	if p.Dst == self {
		return
	}
	routing.ForwardSourceRouted(r.env, r.ar, p)
}

// dropRoutesVia removes routes using the broken link from every route
// set, releasing the dropped buffers back to the arena.
func (r *Router) dropRoutesVia(a, b packet.NodeID) {
	for dst, rs := range r.routes {
		kept := rs.routes[:0]
		for _, route := range rs.routes {
			if routing.ContainsLink(route, a, b) {
				r.ar.ReleaseRoute(route)
			} else {
				kept = append(kept, route)
			}
		}
		for i := len(kept); i < len(rs.routes); i++ {
			rs.routes[i] = nil
		}
		rs.routes = kept
		if len(rs.routes) == 0 {
			rs.next = 0
			rs.id = 0
			r.rsPool = append(r.rsPool, rs)
			delete(r.routes, dst)
		}
	}
}

func (r *Router) handleData(p *packet.Packet, from packet.NodeID) {
	self := r.env.ID()
	if p.Dst == self {
		r.env.DeliverLocal(p, from)
		return
	}
	if p.SourceRoute == nil || p.TTL <= 1 {
		r.env.NotifyDrop(p, "no-source-route")
		return
	}
	if p.Kind == packet.KindData {
		r.env.NotifyRelay(p)
	}
	routing.ForwardSourceRouted(r.env, r.ar, p)
}

// LinkFailed implements routing.Protocol.
func (r *Router) LinkFailed(p *packet.Packet, next packet.NodeID) {
	self := r.env.ID()
	r.dropRoutesVia(self, next)
	r.env.DropQueued(func(_ *packet.Packet, n packet.NodeID) bool { return n == next })

	if p.Src != self && p.SourceRoute != nil && p.Kind != packet.KindRERR {
		r.sendRERR(p, self, next)
	}
	if p.Kind == packet.KindRERR || p.Kind == packet.KindRREP {
		r.ar.Release(p)
		return
	}
	if p.Src == self {
		// Use the surviving route, or rediscover (SMR re-floods when the
		// route set is exhausted).
		if rs := r.routes[p.Dst]; rs != nil && len(rs.routes) > 0 {
			route := r.pickRoute(p.Dst, rs, routing.FlowKey(p))
			routing.SendAlong(r.env, r.ar, r.ar.Copy(p, r.env.UIDs()), route)
			r.ar.Release(p)
			return
		}
		r.disc.Queue(p)
		return
	}
	r.env.NotifyDrop(p, "link-failure")
	r.ar.Release(p)
}

func (r *Router) sendRERR(p *packet.Packet, from, to packet.NodeID) {
	idx := slices.Index(p.SourceRoute, r.env.ID())
	if idx <= 0 {
		return
	}
	routing.SendSourceRouted(r.env, r.ar, routing.ReverseRoute(p.SourceRoute[:idx+1]), packet.Packet{
		Kind: packet.KindRERR, Size: rerrSize, Dst: p.Src, Routing: &RERR{From: from, To: to}})
}

// Buffered reports how many data packets are parked in the send buffer
// awaiting discovery (retire-drainage audits).
func (r *Router) Buffered() int { return r.buffer.Size() }

// RouteCount returns the number of active routes toward dst (tests).
func (r *Router) RouteCount(dst packet.NodeID) int {
	if rs := r.routes[dst]; rs != nil {
		return len(rs.routes)
	}
	return 0
}

// Routes returns copies of the active routes toward dst (tests).
func (r *Router) Routes(dst packet.NodeID) [][]packet.NodeID {
	rs := r.routes[dst]
	if rs == nil {
		return nil
	}
	out := make([][]packet.NodeID, 0, len(rs.routes))
	for _, route := range rs.routes {
		out = append(out, packet.CloneRoute(route))
	}
	return out
}

var _ routing.Protocol = (*Router)(nil)
