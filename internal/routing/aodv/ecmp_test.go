package aodv

import (
	"fmt"
	"strings"
	"testing"

	"mtsim/internal/packet"
	"mtsim/internal/routing/routingtest"
	"mtsim/internal/sim"
)

// ecmpNode is one AODV router at node 0 whose route offers are fed by
// hand, so the order in which equal-cost next hops arrive is fixed.
type ecmpNode struct {
	t    *testing.T
	uids packet.UIDSource
	env  *routingtest.Env
	r    *Router
}

func newECMPNode(t *testing.T) *ecmpNode {
	n := &ecmpNode{t: t}
	sched := sim.NewScheduler()
	n.env = routingtest.NewEnv(0, sched, &n.uids, packet.NewArena(sched.Now))
	n.r = New(n.env, DefaultConfig())
	return n
}

// rreq delivers one copy of orig's flood (discovery seq, one hop from
// orig) as heard from neighbour from. The first copy installs the reverse
// route to orig; later copies of the same flood are duplicates. TTL 1
// keeps the copy from being relayed.
func (n *ecmpNode) rreq(orig packet.NodeID, seq uint32, from packet.NodeID) {
	n.r.Receive(&packet.Packet{UID: n.uids.Next(), Kind: packet.KindRREQ, Src: orig, Dst: 99, TTL: 1,
		Routing: &RREQ{Orig: orig, OrigSeq: seq, BID: seq, Target: 99, Hops: 1}}, from)
}

// rrep delivers a reply for target (seq, hops from the replier) relayed by
// from. Its originator is unknown here, so the reply is not forwarded.
func (n *ecmpNode) rrep(target packet.NodeID, seq uint32, hops int, from packet.NodeID) {
	n.r.Receive(&packet.Packet{UID: n.uids.Next(), Kind: packet.KindRREP, Src: target, Dst: 98, TTL: 8,
		Routing: &RREP{Orig: 98, Target: target, TargetSeq: seq, Hops: hops}}, from)
}

func (n *ecmpNode) next(dst packet.NodeID) packet.NodeID {
	n.t.Helper()
	next, _, ok := n.r.RouteTo(dst)
	if !ok {
		n.t.Fatalf("no route to %d", dst)
	}
	return next
}

// fail reports a MAC failure toward next for a data packet of the given
// TCP flow to dst, and returns the hop the packet was re-sent to (-1: it
// was not re-sent).
func (n *ecmpNode) fail(dst packet.NodeID, flow int, next packet.NodeID) packet.NodeID {
	n.env.TakeOutbox()
	p := &packet.Packet{UID: n.uids.Next(), Kind: packet.KindData, Size: 1040, Src: 0, Dst: dst, TTL: 64,
		TCP: &packet.TCPHeader{Flow: flow}}
	n.r.LinkFailed(p, next)
	for _, s := range n.env.TakeOutbox() {
		if s.P == p {
			return s.Next
		}
	}
	return -1
}

// pinFlows runs one fresh scenario per TCP flow 1..8 and renders the hop
// each flow's packet left through.
func pinFlows(t *testing.T, scenario func(n *ecmpNode, flow int) packet.NodeID) string {
	picks := make([]string, 0, 8)
	for flow := 1; flow <= 8; flow++ {
		picks = append(picks, fmt.Sprint(scenario(newECMPNode(t), flow)))
	}
	return strings.Join(picks, " ")
}

// TestRepairPicksAmongSurvivors: node 0 hears node 4's flood from 2, then
// from 1 and 3 at the same hop count, so it holds three equal-cost next
// hops with 2 installed. Failing 2 repairs the entry in place — no RERR,
// no rediscovery — and the packet leaves through the survivor its flow
// hashes to.
func TestRepairPicksAmongSurvivors(t *testing.T) {
	got := pinFlows(t, func(n *ecmpNode, flow int) packet.NodeID {
		for _, from := range []packet.NodeID{2, 1, 3} {
			n.rreq(4, 7, from)
		}
		if n.next(4) != 2 {
			t.Fatalf("installed next hop %d, want 2", n.next(4))
		}
		out := n.fail(4, flow, 2)
		if n.r.Repairs != 1 || n.r.RERRsSent != 0 || n.r.Discoveries != 0 {
			t.Fatalf("flow %d: repairs %d, RERRs %d, discoveries %d; want 1, 0, 0",
				flow, n.r.Repairs, n.r.RERRsSent, n.r.Discoveries)
		}
		if out != 1 && out != 3 || n.next(4) != out {
			t.Fatalf("flow %d: packet left via %d, route via %d; want the same survivor", flow, out, n.next(4))
		}
		return out
	})
	if want := "1 3 1 3 3 3 3 3"; got != want {
		t.Errorf("survivors for flows 1..8 = %q, want %q", got, want)
	}
}

// TestEqualCostSetRules pins how offers build the equal-cost set: an
// accepted offer (fresher, or equally fresh and shorter) resets it to the
// new next hop alone; an equally fresh, equally long offer is appended in
// arrival order unless already present; a longer one is ignored; a failed
// neighbour leaves every destination's set; and every repair one failure
// triggers is keyed by the failed packet's flow.
func TestEqualCostSetRules(t *testing.T) {
	noRepair := func(name string, n *ecmpNode, via packet.NodeID) {
		t.Helper()
		if out := n.fail(4, 1, via); out != -1 || n.r.Repairs != 0 || n.r.RERRsSent != 1 {
			t.Errorf("%s: packet re-sent via %d, repairs %d, RERRs %d; want no repair and one RERR",
				name, out, n.r.Repairs, n.r.RERRsSent)
		}
	}
	t.Run("fresher offer resets", func(t *testing.T) {
		n := newECMPNode(t)
		for _, from := range []packet.NodeID{2, 1, 3} {
			n.rreq(4, 7, from)
		}
		n.rrep(4, 8, 1, 5)
		noRepair("fresher", n, 5)
	})
	t.Run("shorter offer resets", func(t *testing.T) {
		n := newECMPNode(t)
		for _, from := range []packet.NodeID{2, 1, 3} {
			n.rreq(4, 7, from)
		}
		n.rrep(4, 7, 0, 5)
		noRepair("shorter", n, 5)
	})
	t.Run("append order and dedup", func(t *testing.T) {
		got := pinFlows(t, func(n *ecmpNode, flow int) packet.NodeID {
			n.rreq(4, 7, 2)
			n.rrep(4, 7, 2, 6) // one hop longer: ignored
			n.rrep(4, 7, 1, 3)
			n.rrep(4, 7, 1, 1)
			n.rrep(4, 7, 1, 3) // already present
			n.rreq(4, 7, 3)    // already present
			return n.fail(4, flow, 2)
		})
		if want := "3 1 3 1 1 1 1 1"; got != want {
			t.Errorf("survivors for flows 1..8 = %q, want %q", got, want)
		}
	})
	t.Run("failed neighbour leaves every set", func(t *testing.T) {
		got := pinFlows(t, func(n *ecmpNode, flow int) packet.NodeID {
			for _, from := range []packet.NodeID{2, 1, 3} {
				n.rreq(4, 7, from)
				n.rreq(6, 9, from)
			}
			n.fail(6, flow, 1) // an alternative of 4's, not its installed hop
			return n.fail(4, flow, 2)
		})
		if want := "3 3 3 3 3 3 3 3"; got != want {
			t.Errorf("survivors for flows 1..8 = %q, want %q", got, want)
		}
	})
	t.Run("repairs keyed by the failed packet's flow", func(t *testing.T) {
		var picks []string
		for flow := 1; flow <= 8; flow++ {
			n := newECMPNode(t)
			for _, from := range []packet.NodeID{2, 1, 3} {
				n.rreq(4, 7, from)
				n.rreq(6, 9, from)
			}
			n.fail(4, flow, 2)
			if n.r.Repairs != 2 {
				t.Fatalf("flow %d: repairs %d, want 2", flow, n.r.Repairs)
			}
			picks = append(picks, fmt.Sprintf("%d/%d", n.next(4), n.next(6)))
		}
		if got, want := strings.Join(picks, " "), "1/3 3/1 1/1 3/3 3/1 3/3 3/3 3/1"; got != want {
			t.Errorf("next hops to 4/6 for flows 1..8 = %q, want %q", got, want)
		}
	})
}
