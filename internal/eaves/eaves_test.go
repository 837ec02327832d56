package eaves

import (
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/mac"
	"mtsim/internal/mobility"
	"mtsim/internal/node"
	"mtsim/internal/packet"
	"mtsim/internal/phy"
	"mtsim/internal/sim"
)

// nullUpper satisfies mac.Upper for a bare node.
type nullProto struct{}

func (nullProto) Name() string                             { return "NULL" }
func (nullProto) Start()                                   {}
func (nullProto) Send(*packet.Packet)                      {}
func (nullProto) Receive(*packet.Packet, packet.NodeID)    {}
func (nullProto) LinkFailed(*packet.Packet, packet.NodeID) {}

func buildNet(t *testing.T) (*sim.Scheduler, []*node.Node, *packet.UIDSource) {
	t.Helper()
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, 250, 550, geo.Field(1000, 1000))
	ar := packet.NewArena(sched.Now)
	uids := &packet.UIDSource{}
	rng := sim.NewRNG(9)
	pts := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100, Y: 100}}
	var nodes []*node.Node
	for i, p := range pts {
		n := node.New(packet.NodeID(i), sched, ch, mac.Default80211b(),
			&mobility.Static{P: p}, rng.Derive("n"), uids, ar)
		n.SetProtocol(nullProto{})
		nodes = append(nodes, n)
	}
	return sched, nodes, uids
}

func dataPkt(uids *packet.UIDSource, dataID uint64) *packet.Packet {
	return &packet.Packet{
		UID: uids.Next(), Kind: packet.KindData, Size: 1040,
		Src: 0, Dst: 1, TTL: 8, DataID: dataID,
		TCP: &packet.TCPHeader{Flow: 1},
	}
}

// tap returns a ledger with one static vantage point on n.
func tap(n *node.Node) *Ledger {
	l := NewLedger()
	l.Tap(n)
	return &l
}

func TestEavesdropperCountsDistinctAndFrames(t *testing.T) {
	sched, nodes, uids := buildNet(t)
	ev := tap(nodes[2]) // bystander in range of the 0->1 link
	nodes[0].SendMac(dataPkt(uids, 1), 1)
	nodes[0].SendMac(dataPkt(uids, 2), 1)
	nodes[0].SendMac(dataPkt(uids, 2), 1) // retransmission of payload 2
	sched.RunUntil(sim.Time(sim.Second))

	if ev.Frames() != 3 {
		t.Fatalf("frames = %d, want 3", ev.Frames())
	}
	if ev.Distinct() != 2 {
		t.Fatalf("distinct = %d, want 2", ev.Distinct())
	}
	if m := ev.Members()[0]; m != (Member{Node: 2, Frames: 3, Distinct: 2}) {
		t.Fatalf("member = %+v, want node 2 with 3 frames, 2 distinct", m)
	}
}

func TestEavesdropperIgnoresControlAndAcks(t *testing.T) {
	sched, nodes, uids := buildNet(t)
	ev := tap(nodes[2])
	// Routing control packet.
	nodes[0].SendMac(&packet.Packet{
		UID: uids.Next(), Kind: packet.KindRREQ, Size: 64, Src: 0, Dst: 1, TTL: 8,
	}, packet.Broadcast)
	// TCP ACK.
	nodes[0].SendMac(&packet.Packet{
		UID: uids.Next(), Kind: packet.KindAck, Size: 40, Src: 0, Dst: 1, TTL: 8,
		TCP: &packet.TCPHeader{Flow: 1, Ack: true},
	}, 1)
	// Data without DataID (not transport payload).
	nodes[0].SendMac(&packet.Packet{
		UID: uids.Next(), Kind: packet.KindData, Size: 500, Src: 0, Dst: 1, TTL: 8,
	}, 1)
	sched.RunUntil(sim.Time(sim.Second))

	if ev.Frames() != 0 || ev.Distinct() != 0 {
		t.Fatalf("eavesdropper counted non-payload traffic: frames=%d distinct=%d",
			ev.Frames(), ev.Distinct())
	}
}

func TestEavesdropperRatio(t *testing.T) {
	sched, nodes, uids := buildNet(t)
	ev := tap(nodes[2])
	for i := uint64(1); i <= 4; i++ {
		nodes[0].SendMac(dataPkt(uids, i), 1)
	}
	sched.RunUntil(sim.Time(sim.Second))
	if got := ev.Ratio(8); got != 0.5 {
		t.Fatalf("ratio = %v, want 0.5", got)
	}
	if got := ev.Ratio(0); got != 0 {
		t.Fatalf("ratio with Pr=0 = %v, want 0", got)
	}
	empty := NewLedger()
	if empty.Ratio(10) != 0 || len(empty.Members()) != 0 {
		t.Fatal("empty ledger reports interception")
	}
}

func TestEavesdropperSeesRelayedTraffic(t *testing.T) {
	// The eavesdropper also counts packets addressed to itself (it relays
	// like any legitimate node, §IV-B).
	sched, nodes, uids := buildNet(t)
	ev := tap(nodes[2])
	p := dataPkt(uids, 42)
	p.Dst = 2
	nodes[0].SendMac(p, 2)
	sched.RunUntil(sim.Time(sim.Second))
	if ev.Distinct() != 1 {
		t.Fatal("packet addressed to eavesdropper not counted")
	}
}

func TestContiguitySetView(t *testing.T) {
	set := func(ids ...uint64) map[uint64]bool {
		m := map[uint64]bool{}
		for _, id := range ids {
			m[id] = true
		}
		return m
	}
	cases := []struct {
		name            string
		seen            map[uint64]bool
		longest, contig uint64
	}{
		{"empty", set(), 0, 0},
		{"singleton", set(5), 1, 0},
		{"isolated", set(1, 3, 5, 9), 1, 0},
		{"one-run", set(4, 5, 6, 7), 4, 4},
		{"two-runs", set(1, 2, 10, 11, 12, 20), 3, 5},
		{"from-one", set(1, 2, 3), 3, 3},
	}
	for _, tc := range cases {
		longest, contig := Contiguity(tc.seen)
		if longest != tc.longest || contig != tc.contig {
			t.Errorf("%s: Contiguity = (%d, %d), want (%d, %d)",
				tc.name, longest, contig, tc.longest, tc.contig)
		}
	}
}

func TestStreamTrackerInOrderView(t *testing.T) {
	var tr StreamTracker
	// Heard: 1,2,3 (streak 3), then 7, then 8 (streak 2), then 5 (break:
	// 5 is not 8+1 even though the set now holds 1,2,3,5,7,8).
	for _, id := range []uint64{1, 2, 3, 7, 8, 5} {
		tr.Note(id)
	}
	if tr.Longest != 3 {
		t.Errorf("Longest = %d, want 3", tr.Longest)
	}
	if tr.Contig != 5 { // 1,2,3 and 7,8
		t.Errorf("Contig = %d, want 5", tr.Contig)
	}
	// A permuted stream yields no streaks at all.
	var perm StreamTracker
	for _, id := range []uint64{4, 1, 3, 6, 2, 5} {
		perm.Note(id)
	}
	if perm.Longest != 1 || perm.Contig != 0 {
		t.Errorf("permuted stream: Longest=%d Contig=%d, want 1, 0", perm.Longest, perm.Contig)
	}
	// Stats folds both views.
	seen := map[uint64]bool{1: true, 2: true, 3: true}
	cs := Stats(seen, &tr)
	if cs.LongestRun != 3 || cs.RunPkts != 3 || cs.StreamRun != 3 || cs.StreamPkts != 5 {
		t.Errorf("Stats = %+v", cs)
	}
	if cs := Stats(seen, nil); cs.StreamRun != 0 || cs.StreamPkts != 0 {
		t.Errorf("nil tracker leaked stream stats: %+v", cs)
	}
}
