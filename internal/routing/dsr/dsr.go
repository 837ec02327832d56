// Package dsr implements the Dynamic Source Routing protocol (Johnson &
// Maltz) as the paper's second baseline. Characteristics that matter for
// the paper's comparison and are reproduced here:
//
//   - aggressive route caching with no expiry, including learning routes
//     from forwarded packets and from promiscuously overheard source routes
//     (the MAC tap), which gives DSR its low overhead and low delay at low
//     speeds — and its collapsing delivery rate at high speeds (Fig. 10),
//     when cached routes go stale faster than errors purge them;
//   - replies from cache by intermediate nodes;
//   - source routes carried in every data packet;
//   - route errors unicast back to the source along the failed packet's
//     reversed prefix, plus packet salvaging from the local cache.
package dsr

import (
	"slices"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/sim"
)

// Config holds DSR parameters.
type Config struct {
	CachePerDst      int
	CacheGlobal      int
	MaxSalvage       uint8
	ReplyFromCache   bool
	Snoop            bool // promiscuous source-route snooping via the MAC tap
	DiscoveryRetries int
	BackoffInit      sim.Duration
	BackoffMax       sim.Duration
	SendBufCap       int
	SendBufAge       sim.Duration
}

// DefaultConfig returns the parameter set used in the experiments.
func DefaultConfig() Config {
	return Config{
		CachePerDst:      4,
		CacheGlobal:      64,
		MaxSalvage:       1,
		ReplyFromCache:   true,
		Snoop:            true,
		DiscoveryRetries: 8,
		BackoffInit:      500 * sim.Millisecond,
		BackoffMax:       10 * sim.Second,
		SendBufCap:       64,
		SendBufAge:       8 * sim.Second,
	}
}

// Control packet wire sizes (bytes): base plus 4 per address in the route.
const (
	rreqBase = 16
	rrepBase = 16
	rerrSize = 24
	addrSize = 4
)

// RREQ is the DSR route-request header with its accumulated route record.
type RREQ struct {
	Orig   packet.NodeID
	Target packet.NodeID
	ID     uint32
	Record []packet.NodeID // nodes traversed so far, starting with Orig
}

// RREP carries a complete route Orig → Target back to the originator.
type RREP struct {
	Route []packet.NodeID
}

// RERR reports a broken link From→To back to the source of the failed
// packet.
type RERR struct {
	From, To packet.NodeID
}

// Router is one node's DSR instance.
type Router struct {
	env   routing.Env
	cfg   Config
	ar    *packet.Arena       // the env's packet arena (nil: plain allocation)
	trust routing.TrustOracle // nil: legacy selection, bit-for-bit

	cache  *routeCache
	reqID  uint32
	seen   map[seenKey]bool
	buffer *routing.SendBuffer
	disc   *routing.Discovery[*Router]

	// pathBuf is scratch for assembling candidate cache routes ([self,
	// tail...]); routeCache.Add copies, so the scratch never escapes.
	pathBuf []packet.NodeID

	// Stats
	Discoveries   uint64
	CacheReplies  uint64
	Salvages      uint64
	SnoopedRoutes uint64
}

type seenKey struct {
	orig packet.NodeID
	id   uint32
}

// New creates a DSR router bound to env.
func New(env routing.Env, cfg Config) *Router {
	ar := routing.ArenaOf(env)
	r := &Router{
		env:    env,
		cfg:    cfg,
		ar:     ar,
		trust:  routing.TrustOf(env),
		cache:  newRouteCache(env.ID(), cfg.CachePerDst, cfg.CacheGlobal, ar),
		seen:   make(map[seenKey]bool),
		buffer: routing.NewSendBuffer(env, cfg.SendBufCap, cfg.SendBufAge),
	}
	r.disc = routing.NewDiscovery(env, r.buffer, r, &discoveryPolicy)
	return r
}

// discoveryPolicy is DSR's part of route discovery: a backoff doubling
// from BackoffInit up to BackoffMax, DiscoveryRetries attempts, and any
// cached route ends the search.
var discoveryPolicy = routing.DiscoveryPolicy[*Router]{
	Flood:     (*Router).floodRREQ,
	Timeout:   (*Router).backoff,
	Retry:     func(r *Router, _ packet.NodeID, n int) bool { return n < r.cfg.DiscoveryRetries },
	HaveRoute: (*Router).HasRoute,
}

// Retire implements routing.Retirer: hand back buffered packets and the
// cache's arena-owned routes at run end.
func (r *Router) Retire() {
	r.buffer.Retire()
	r.cache.Drain()
}

// Name implements routing.Protocol.
func (r *Router) Name() string { return "DSR" }

// Start implements routing.Protocol.
func (r *Router) Start() {}

// Send implements routing.Protocol: originate an end-to-end packet.
func (r *Router) Send(p *packet.Packet) {
	self := r.env.ID()
	if p.Dst == self {
		r.env.DeliverLocal(p, self)
		r.ar.Release(p)
		return
	}
	if route := r.pickRoute(p.Dst, routing.FlowKey(p)); route != nil {
		routing.SendAlong(r.env, r.ar, p, route)
		return
	}
	r.disc.Queue(p)
}

// pickRoute selects the route for one of this node's own packets: the
// legacy ECMP hash-spread among equal-shortest routes, or — when the
// trust defence is active — the lowest trust-weighted cost route, so
// traffic routes around neighbours observed dropping (wormhole endpoints,
// black/grayholes).
func (r *Router) pickRoute(dst packet.NodeID, flow uint64) []packet.NodeID {
	if r.trust == nil {
		return r.cache.GetForFlow(dst, flow)
	}
	return r.cache.GetTrusted(dst, r.trust)
}

// floodRREQ broadcasts a fresh route request for dst.
func (r *Router) floodRREQ(dst packet.NodeID, _ int) {
	r.Discoveries++
	r.reqID++
	self := r.env.ID()
	h := &RREQ{Orig: self, Target: dst, ID: r.reqID, Record: []packet.NodeID{self}}
	r.seen[seenKey{self, h.ID}] = true
	routing.Originate(r.env, r.ar, packet.Broadcast, packet.Packet{
		Kind: packet.KindRREQ, Size: rreqBase + addrSize, Dst: dst, TTL: routing.DefaultTTL, Routing: h})
}

// backoff is attempt n's wait for a reply: BackoffInit doubled per
// attempt, capped at BackoffMax.
func (r *Router) backoff(_ packet.NodeID, n int) sim.Duration {
	return min(r.cfg.BackoffInit<<(n-1), r.cfg.BackoffMax)
}

// completeDiscovery flushes buffered traffic once a route exists.
func (r *Router) completeDiscovery(dst packet.NodeID) {
	r.disc.Complete(dst)
	if r.cache.Get(dst) == nil {
		return
	}
	// Per-packet lookup: equally short routes spread across the buffered
	// flows instead of all draining down one.
	for _, q := range r.buffer.Pop(dst) {
		routing.SendAlong(r.env, r.ar, q, r.pickRoute(dst, routing.FlowKey(q)))
	}
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
	self := r.env.ID()
	if h.Orig == self || slices.Contains(h.Record, self) {
		return // our own request, or already on its path
	}
	key := seenKey{h.Orig, h.ID}
	if r.seen[key] {
		return
	}
	r.seen[key] = true

	// Learn the reverse route from the accumulated record:
	// [self, prev, ..., n1, orig].
	r.cache.Add(r.scratchSelfPlusReversed(h.Record))

	if h.Target == self {
		route := append(packet.CloneRoute(h.Record), self)
		r.sendRREP(route)
		return
	}

	if r.cfg.ReplyFromCache {
		if cached := r.cache.Get(h.Target); cached != nil {
			prefix := append(packet.CloneRoute(h.Record), self)
			if full := concatenate(prefix, cached); full != nil {
				r.CacheReplies++
				r.sendRREP(full)
				return
			}
		}
	}

	if p.TTL <= 1 {
		return
	}
	record := append(packet.CloneRoute(h.Record), self)
	routing.Rebroadcast(r.env, r.ar, p, &RREQ{Orig: h.Orig, Target: h.Target, ID: h.ID, Record: record},
		rreqBase+addrSize*len(record))
}

// sendRREP unicasts a reply carrying the full route back to its origin
// (route[0]) along the reversed route.
func (r *Router) sendRREP(route []packet.NodeID) {
	back := routing.ReverseRoute(route)
	// Trim the reversed route so it starts at self (the replier may be an
	// intermediate node replying from cache).
	start := slices.Index(back, r.env.ID())
	if start < 0 || len(back)-start < 2 {
		return
	}
	back = back[start:]
	routing.SendSourceRouted(r.env, r.ar, back, packet.Packet{Kind: packet.KindRREP,
		Size: rrepBase + addrSize*len(route), Dst: back[len(back)-1], Routing: &RREP{Route: route}})
}

func (r *Router) handleRREP(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RREP)
	self := r.env.ID()
	// Every node relaying or receiving a reply learns the carried route
	// segments relative to itself.
	r.learnFromRoute(h.Route)

	if p.Dst == self {
		r.completeDiscovery(h.Route[len(h.Route)-1])
		return
	}
	routing.ForwardSourceRouted(r.env, r.ar, p)
}

func (r *Router) handleRERR(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RERR)
	r.cache.RemoveLink(h.From, h.To)
	if p.Dst == r.env.ID() {
		return
	}
	routing.ForwardSourceRouted(r.env, r.ar, p)
}

func (r *Router) handleData(p *packet.Packet, from packet.NodeID) {
	self := r.env.ID()
	if p.Dst == self {
		if p.SourceRoute != nil {
			r.learnFromRoute(p.SourceRoute)
		}
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
	r.learnFromRoute(p.SourceRoute)
	routing.ForwardSourceRouted(r.env, r.ar, p)
}

// learnFromRoute caches the sub-routes this node can extract from a full
// route it participates in: the suffix ahead of it and the reversed prefix
// behind it.
func (r *Router) learnFromRoute(route []packet.NodeID) {
	i := slices.Index(route, r.env.ID())
	if i < 0 {
		return
	}
	if i+1 < len(route) {
		r.cache.Add(route[i:]) // Add copies; aliasing the header is fine
	}
	if i > 0 {
		// [self, route[i-1], ..., route[0]] — route[i] is self.
		r.cache.Add(r.scratchSelfPlusReversed(route[:i]))
	}
}

// scratchSelfPlus fills the router's scratch path with [self, tail...].
// Valid until the next scratch call; routeCache.Add copies it.
func (r *Router) scratchSelfPlus(tail []packet.NodeID) []packet.NodeID {
	r.pathBuf = append(r.pathBuf[:0], r.env.ID())
	r.pathBuf = append(r.pathBuf, tail...)
	return r.pathBuf
}

// scratchSelfPlusReversed fills the scratch path with [self, seg reversed].
func (r *Router) scratchSelfPlusReversed(seg []packet.NodeID) []packet.NodeID {
	r.pathBuf = append(r.pathBuf[:0], r.env.ID())
	for i := len(seg) - 1; i >= 0; i-- {
		r.pathBuf = append(r.pathBuf, seg[i])
	}
	return r.pathBuf
}

// TapFrame implements node.FrameTap: promiscuous snooping. An overheard
// source-routed packet tells us the transmitter (a neighbour, since we
// decoded its frame) can reach everything on the remainder of its route —
// and, reversed, everything back to the route's origin.
func (r *Router) TapFrame(f *packet.Frame) {
	if !r.cfg.Snoop || f.Kind != packet.FrameData || f.Payload == nil {
		return
	}
	p := f.Payload
	if p.SourceRoute == nil || f.TxFrom == r.env.ID() || f.TxTo == r.env.ID() {
		return
	}
	route := p.SourceRoute
	txIdx := slices.Index(route, f.TxFrom)
	if txIdx < 0 {
		return
	}
	if suffix := route[txIdx:]; len(suffix) >= 2 {
		if r.cache.Add(r.scratchSelfPlus(suffix)) {
			r.SnoopedRoutes++
		}
	}
	if txIdx >= 1 {
		if r.cache.Add(r.scratchSelfPlusReversed(route[:txIdx+1])) {
			r.SnoopedRoutes++
		}
	}
}

// LinkFailed implements routing.Protocol: MAC retry exhaustion toward
// next. Ownership of p passes back from the MAC: every branch re-sends
// it, re-buffers it, or releases it.
func (r *Router) LinkFailed(p *packet.Packet, next packet.NodeID) {
	self := r.env.ID()
	r.cache.RemoveLink(self, next)
	r.env.DropQueued(func(_ *packet.Packet, n packet.NodeID) bool { return n == next })

	// Tell the packet's source about the broken link (unless we are it).
	if p.Src != self && p.SourceRoute != nil {
		r.sendRERR(p, self, next)
	}

	switch {
	case p.Kind == packet.KindRERR, p.Kind == packet.KindRREP:
		r.ar.Release(p) // control packets are not salvaged
	case p.Src == self:
		// Our own packet: retry via another cached route or rediscover.
		// GetForFlow re-hashes over whatever survived RemoveLink, so a flow
		// whose pinned route just broke lands on a surviving equal-cost one.
		if route := r.pickRoute(p.Dst, routing.FlowKey(p)); route != nil {
			routing.SendAlong(r.env, r.ar, p, route)
			return
		}
		r.disc.Queue(p)
	default:
		r.salvage(p, next)
	}
}

// sendRERR unicasts a route error to p's source along the reversed prefix
// of p's source route.
func (r *Router) sendRERR(p *packet.Packet, from, to packet.NodeID) {
	idx := slices.Index(p.SourceRoute, r.env.ID())
	if idx <= 0 {
		return
	}
	routing.SendSourceRouted(r.env, r.ar, routing.ReverseRoute(p.SourceRoute[:idx+1]), packet.Packet{
		Kind: packet.KindRERR, Size: rerrSize, Dst: p.Src, Routing: &RERR{From: from, To: to}})
}

// salvage re-routes a transit packet around a failed link using the local
// cache, bounded by MaxSalvage.
func (r *Router) salvage(p *packet.Packet, failedNext packet.NodeID) {
	if p.Salvage >= r.cfg.MaxSalvage {
		r.env.NotifyDrop(p, "salvage-limit")
		r.ar.Release(p)
		return
	}
	route := r.cache.GetAvoidingLink(p.Dst, r.env.ID(), failedNext)
	if route == nil {
		r.env.NotifyDrop(p, "link-failure")
		r.ar.Release(p)
		return
	}
	r.Salvages++
	fwd := r.ar.Copy(p, r.env.UIDs())
	fwd.Salvage++
	routing.SendAlong(r.env, r.ar, fwd, route)
	r.ar.Release(p)
}

// Buffered reports how many data packets are parked in the send buffer
// awaiting discovery (retire-drainage audits).
func (r *Router) Buffered() int { return r.buffer.Size() }

// CacheLen exposes the number of cached routes (tests).
func (r *Router) CacheLen() int { return r.cache.Len() }

// HasRoute reports whether a route to dst is cached (tests).
func (r *Router) HasRoute(dst packet.NodeID) bool { return r.cache.Get(dst) != nil }

var _ routing.Protocol = (*Router)(nil)
