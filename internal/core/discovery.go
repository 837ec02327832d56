package core

import (
	"slices"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
)

// Send implements routing.Protocol: originate an end-to-end packet.
func (r *Router) Send(p *packet.Packet) {
	self := r.env.ID()
	if p.Dst == self {
		r.env.DeliverLocal(p, self)
		r.ar.Release(p)
		return
	}
	// If this node is the destination side of a session with p.Dst (it
	// has stored disjoint paths from p.Dst's discoveries), return traffic
	// (TCP ACKs) is source-routed along a stored path, mirroring how the
	// checking packets themselves travel.
	if ds := r.dst[p.Dst]; ds != nil {
		if route := r.returnRoute(ds); route != nil {
			routing.SendAlong(r.env, r.ar, p, route)
			return
		}
	}
	ss := r.src[p.Dst]
	if ss != nil && ss.haveRoute {
		if sp := ss.paths[ss.current]; !r.usable(sp) {
			// The current path went quiet (two missed checking rounds):
			// fail over to the freshest checked alternative, or fall
			// through to a fresh discovery.
			r.failPath(p.Dst, ss.current)
		}
		if ss.haveRoute {
			if id, sp, ok := r.pickDataPath(ss); ok {
				p.PathID = id
				r.ar.StartTrail(p, self)
				r.noteDataSend(ss, sp.next)
				r.env.SendMac(p, sp.next)
				return
			}
		}
	}
	r.disc.Queue(p)
}

// returnRoute picks the reversed stored path for destination-side traffic:
// the path data most recently arrived on, else any live path.
func (r *Router) returnRoute(ds *dstState) []packet.NodeID {
	var pick *storedPath
	for _, sp := range ds.paths {
		if !sp.alive {
			continue
		}
		if sp.id == ds.lastDataPath {
			pick = sp
			break
		}
		if pick == nil {
			pick = sp
		}
	}
	if pick == nil || len(pick.route) < 2 {
		return nil
	}
	return routing.ReverseRoute(pick.route)
}

// floodRREQ broadcasts a fresh route request (a new broadcast ID) for dst.
func (r *Router) floodRREQ(dst packet.NodeID, _ int) {
	r.Stats.Discoveries++
	r.bid++
	self := r.env.ID()
	h := &RREQ{Orig: self, Target: dst, BID: r.bid, Record: []packet.NodeID{self}}
	r.seen[seenKey{self, h.BID}] = true
	// A fresh discovery invalidates what we knew: the RREQ will flush the
	// destination's stored paths, so the old path set must not be reused.
	routing.Originate(r.env, r.ar, packet.Broadcast, packet.Packet{
		Kind: packet.KindRREQ, Size: rreqBase + addrSize, Dst: dst, TTL: routing.DefaultTTL, Routing: h})
}

func (r *Router) handleRREQ(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RREQ)
	self := r.env.ID()
	if h.Orig == self {
		return
	}
	if h.Target == self {
		r.rreqAtDestination(h, from)
		return
	}
	// Intermediate node: relay only the first copy (§III-B). Even a node
	// holding a fresh route to the target must relay rather than reply.
	key := seenKey{h.Orig, h.BID}
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	if slices.Contains(h.Record, self) || p.TTL <= 1 {
		return
	}
	record := append(packet.CloneRoute(h.Record), self)
	routing.Rebroadcast(r.env, r.ar, p, &RREQ{Orig: h.Orig, Target: h.Target, BID: h.BID, Hops: h.Hops + 1,
		Record: record}, rreqBase+addrSize*len(record))
}

// rreqAtDestination processes every RREQ copy reaching the target: the
// first copy triggers an immediate RREP; later copies are candidate
// disjoint paths (§III-B, §III-C).
func (r *Router) rreqAtDestination(h *RREQ, from packet.NodeID) {
	self := r.env.ID()
	ds := r.dst[h.Orig]
	if ds == nil {
		ds = &dstState{lastDataPath: -1}
		r.dst[h.Orig] = ds
	}
	route := append(packet.CloneRoute(h.Record), self) // S … D
	if routing.HasLoop(route) {
		return
	}

	if routing.SeqNewer(h.BID, ds.bid) {
		// "When a new RREQ packet (having larger broadcast ID) reaches
		// the destination, all the existing legitimate paths are
		// flushed." (§III-D)
		ds.bid = h.BID
		for i := range ds.paths {
			ds.paths[i] = nil
		}
		ds.paths = ds.paths[:0]
		sp := r.storePath(ds, route)
		r.sendRREP(sp, h)
		r.ensureChecking(h.Orig)
		return
	}
	if h.BID != ds.bid {
		return // stale request from an earlier discovery
	}
	// Later copy of the current request: store if disjoint and room.
	if len(ds.paths) >= r.cfg.MaxPaths {
		return
	}
	if !r.disjoint(ds, route) {
		return
	}
	r.storePath(ds, route)
}

// storePath records a path and returns it.
func (r *Router) storePath(ds *dstState, route []packet.NodeID) *storedPath {
	sp := &storedPath{id: r.nextPathID, route: route, alive: true}
	r.nextPathID++
	ds.paths = append(ds.paths, sp)
	r.Stats.PathsStored++
	return sp
}

// disjoint applies the destination-side Marina–Das rule (§III-C): a
// candidate is accepted only if it differs from every stored live path in
// both its first hop (next hop from the source) and its last hop (the
// neighbour delivering to the destination).
func (r *Router) disjoint(ds *dstState, route []packet.NodeID) bool {
	if len(route) < 2 {
		return false
	}
	first := route[1]
	last := route[len(route)-2]
	for _, sp := range ds.paths {
		if !sp.alive || len(sp.route) < 2 {
			continue
		}
		if sp.route[1] == first || sp.route[len(sp.route)-2] == last {
			return false
		}
	}
	return true
}

// sendRREP unicasts the immediate reply along the reverse path; every relay
// installs a forward entry toward this destination (the reverse-path
// construction of Figs. 1–2).
func (r *Router) sendRREP(sp *storedPath, h *RREQ) {
	if len(sp.route) < 2 {
		return
	}
	back := routing.ReverseRoute(sp.route) // D … S
	routing.SendSourceRouted(r.env, r.ar, back, packet.Packet{Kind: packet.KindRREP,
		Size: rrepBase + addrSize*len(sp.route), Dst: h.Orig, Routing: &RREP{Route: sp.route, BID: h.BID, PathID: sp.id}})
}

func (r *Router) handleRREP(p *packet.Packet, from packet.NodeID) {
	h := p.Routing.(*RREP)
	self := r.env.ID()
	dest := h.Route[len(h.Route)-1]

	if p.Dst == self {
		// Source: adopt the path.
		ss := r.src[dest]
		if ss == nil {
			ss = newSrcState()
			r.src[dest] = ss
		}
		ss.paths[h.PathID] = &srcPath{
			next:      from,
			lastHeard: r.env.Scheduler().Now(),
			alive:     true,
		}
		ss.current = h.PathID
		ss.haveRoute = true
		r.completeDiscovery(dest)
		return
	}
	// Relay: install the forward entry toward the destination via the
	// neighbour the RREP came from (which is one hop closer to it).
	r.setFwd(dest, h.PathID, from, 0)
	r.relay(p)
}

func (r *Router) completeDiscovery(dst packet.NodeID) {
	r.disc.Complete(dst)
	ss := r.src[dst]
	if ss == nil || !ss.haveRoute {
		return
	}
	if sp := ss.paths[ss.current]; sp == nil || !sp.alive {
		return
	}
	popped := r.buffer.Pop(dst)
	for i, q := range popped {
		id, sp, ok := r.pickDataPath(ss)
		if !ok {
			// No usable path after all: Pop removed every packet, so
			// everything not yet sent must go back in the buffer or it
			// would leak out of the arena ledger.
			for _, rest := range popped[i:] {
				r.buffer.Push(dst, rest)
			}
			return
		}
		q.PathID = id
		r.ar.StartTrail(q, r.env.ID())
		r.noteDataSend(ss, sp.next)
		r.env.SendMac(q, sp.next)
	}
}

// relay advances any source-routed MTS packet (RREP, Check, CheckErr,
// RERR, return data) one hop. Unlike the baselines, MTS also drops a
// packet whose TTL is spent.
func (r *Router) relay(p *packet.Packet) {
	if p.TTL <= 1 {
		r.env.NotifyDrop(p, "bad-source-route")
		return
	}
	routing.ForwardSourceRouted(r.env, r.ar, p)
}
