package adversary

import (
	"fmt"
	"testing"

	"mtsim/internal/eaves"
	"mtsim/internal/geo"
	"mtsim/internal/mac"
	"mtsim/internal/mobility"
	"mtsim/internal/node"
	"mtsim/internal/packet"
	"mtsim/internal/phy"
	"mtsim/internal/sim"
)

type nullProto struct{}

func (nullProto) Name() string                             { return "NULL" }
func (nullProto) Start()                                   {}
func (nullProto) Send(*packet.Packet)                      {}
func (nullProto) Receive(*packet.Packet, packet.NodeID)    {}
func (nullProto) LinkFailed(*packet.Packet, packet.NodeID) {}

// buildNet places nodes at the given points on a 250 m-range channel, so
// tests control exactly which taps overhear which transmissions.
func buildNet(t *testing.T, pts []geo.Point) (*sim.Scheduler, []*node.Node, *packet.UIDSource) {
	t.Helper()
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, 250, 550, geo.Field(1000, 1000))
	ar := packet.NewArena(sched.Now)
	uids := &packet.UIDSource{}
	rng := sim.NewRNG(9)
	var nodes []*node.Node
	for i, p := range pts {
		n := node.New(packet.NodeID(i), sched, ch, mac.Default80211b(),
			&mobility.Static{P: p}, rng.Derive(fmt.Sprintf("n%d", i)), uids, ar)
		n.SetProtocol(nullProto{})
		nodes = append(nodes, n)
	}
	return sched, nodes, uids
}

func dataPkt(uids *packet.UIDSource, src packet.NodeID, dataID uint64) *packet.Packet {
	return &packet.Packet{
		UID: uids.Next(), Kind: packet.KindData, Size: 1040,
		Src: src, Dst: src + 1, TTL: 8, DataID: dataID,
		TCP: &packet.TCPHeader{Flow: 1},
	}
}

// line is a 5-node chain at 200 m spacing: with 250 m range each node hears
// only its immediate neighbours, so taps at different positions intercept
// overlapping but unequal subsets of the traffic.
func line() []geo.Point {
	return []geo.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}, {X: 800}}
}

// feed schedules the shared frame feed: 200 data frames over 20 s from
// nodes 0, 2 and 4 of the line, with overlapping DataIDs. Node 0's frames
// reach only node 1; node 2's reach nodes 1 and 3; node 4's reach only
// node 3.
func feed(sched *sim.Scheduler, nodes []*node.Node, uids *packet.UIDSource) {
	rng := sim.NewRNG(1234)
	next := map[packet.NodeID]packet.NodeID{0: 1, 2: 3, 4: 3}
	for i := 0; i < 200; i++ {
		src := packet.NodeID(2 * rng.Intn(3)) // 0, 2 or 4
		id := uint64(1 + rng.Intn(60))
		sched.After(sim.Duration(i)*100*sim.Millisecond, func() {
			nodes[src].SendMac(dataPkt(uids, src, id), next[src])
		})
	}
}

// TestCoalitionUnionBounds is the core accounting property, checked for
// every model on one frame feed the vantage points partially share:
// Frames is the sum of member frames; a static member counts its own
// distinct set, so the union Pe lies between the best member and the sum
// of all members; a roaming member counts payloads first heard at that
// host, so the members sum exactly to the union.
func TestCoalitionUnionBounds(t *testing.T) {
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			sched, nodes, uids := buildNet(t, line())
			hosts := []*node.Node{nodes[1], nodes[3]}
			if model == ModelEavesdropper {
				hosts = hosts[:1]
			}
			spec := Spec{Model: model}
			roaming := model == ModelMobile || model == ModelAdaptive
			if roaming {
				spec.Interval = 2 * sim.Second
			}
			a, err := Build(spec, hosts, sim.NewRNG(7))
			if err != nil {
				t.Fatal(err)
			}
			feed(sched, nodes, uids)
			sched.RunUntil(sim.Time(25 * sim.Second))

			members := a.Members()
			if len(members) != len(hosts) {
				t.Fatalf("members = %d, want %d", len(members), len(hosts))
			}
			var best, sum, frames uint64
			for _, m := range members {
				best = max(best, m.Distinct)
				sum += m.Distinct
				frames += m.Frames
				if m.Distinct == 0 {
					t.Fatalf("member %d heard nothing — topology broken", m.Node)
				}
			}
			if a.Frames() != frames {
				t.Fatalf("frames %d != sum of member frames %d", a.Frames(), frames)
			}
			// The feed only relays through the vantage points, so nothing is
			// dropped; every frame is addressed to one of them, so the
			// route-attraction models count all 200 first attempts.
			var attracted uint64
			if model == ModelWormhole || model == ModelRushing {
				attracted = 200
			}
			if a.Dropped() != 0 || a.Attracted() != attracted {
				t.Fatalf("dropped %d, attracted %d; want 0, %d", a.Dropped(), a.Attracted(), attracted)
			}
			union := a.Distinct()
			if roaming {
				if union != sum {
					t.Fatalf("union %d != sum of first-heard members %d", union, sum)
				}
				return
			}
			if union < best || union > sum {
				t.Fatalf("union %d outside [best member %d, member sum %d]", union, best, sum)
			}
			if len(members) > 1 && best == sum {
				t.Fatal("members heard identical traffic — test exercises nothing")
			}
		})
	}
}

// TestCoalitionK1MatchesLegacy checks the paper's lone eavesdropper
// against a reference tap on the same node that counts frames and
// distinct payloads by hand: every counter and ratio must agree exactly on
// identical overheard traffic.
func TestCoalitionK1MatchesLegacy(t *testing.T) {
	sched, nodes, uids := buildNet(t, line())
	var refFrames uint64
	refSeen := map[uint64]bool{}
	nodes[1].AddStage(node.Stage{Tap: func(f *packet.Frame) {
		if eaves.Counts(f) {
			refFrames++
			refSeen[f.Payload.DataID] = true
		}
	}})
	c, err := Build(Spec{}, nodes[1:2], nil)
	if err != nil {
		t.Fatal(err)
	}

	rng := sim.NewRNG(77)
	for i := 0; i < 120; i++ {
		id := uint64(1 + rng.Intn(40))
		nodes[0].SendMac(dataPkt(uids, 0, id), 1)
		if i%3 == 0 { // retransmission of the same payload
			nodes[0].SendMac(dataPkt(uids, 0, id), 1)
		}
	}
	sched.RunUntil(sim.Time(30 * sim.Second))

	refDistinct := uint64(len(refSeen))
	if refFrames == 0 {
		t.Fatal("no traffic overheard")
	}
	if c.Frames() != refFrames || c.Distinct() != refDistinct {
		t.Fatalf("eavesdropper (%d frames, %d distinct), reference (%d, %d)",
			c.Frames(), c.Distinct(), refFrames, refDistinct)
	}
	for _, pr := range []uint64{1, 7, refDistinct, 100000} {
		if want := float64(refDistinct) / float64(pr); c.Ratio(pr) != want {
			t.Fatalf("ratio(%d) = %v, want %v", pr, c.Ratio(pr), want)
		}
	}
	m := c.Members()[0]
	if m.Node != 1 || m.Frames != refFrames || m.Distinct != refDistinct {
		t.Fatalf("member view %+v disagrees with reference (1, %d, %d)", m, refFrames, refDistinct)
	}
}

// TestRatioEdgeCases: Ri is defined as 0 when nothing was delivered
// (pr == 0) and when nothing was intercepted.
func TestRatioEdgeCases(t *testing.T) {
	_, nodes, _ := buildNet(t, line())
	c, err := Build(Spec{Model: ModelCoalition}, nodes[1:3], nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Ratio(0); got != 0 {
		t.Fatalf("ratio with pr=0 = %v, want 0", got)
	}
	if c.Distinct() != 0 || c.Frames() != 0 {
		t.Fatal("idle coalition has non-zero counters")
	}
	if got := c.Ratio(10); got != 0 {
		t.Fatalf("idle coalition ratio = %v, want 0", got)
	}
}

// TestMobileTourAccounting: only the active vantage point collects, the
// tour advances every interval, and member Distinct (first-heard
// attribution) sums exactly to the union.
func TestMobileTourAccounting(t *testing.T) {
	sched, nodes, uids := buildNet(t, line())
	// nil rng keeps the declared tour order: node 1, then node 3.
	m, err := Build(Spec{Model: ModelMobile, Interval: 5 * sim.Second}, []*node.Node{nodes[1], nodes[3]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Active() != 1 {
		t.Fatalf("initial vantage = %d, want 1", m.Active())
	}

	// Phase 1 (t<5s): node 0 transmits; only host 1 is in range AND active.
	for i := uint64(1); i <= 10; i++ {
		nodes[0].SendMac(dataPkt(uids, 0, i), 1)
	}
	sched.RunUntil(sim.Time(4 * sim.Second))
	if m.Distinct() != 10 {
		t.Fatalf("phase 1 distinct = %d, want 10", m.Distinct())
	}

	// Cross the 5 s boundary: the tap moves to node 3.
	sched.RunUntil(sim.Time(6 * sim.Second))
	if m.Active() != 3 {
		t.Fatalf("vantage after move = %d, want 3", m.Active())
	}

	// Phase 2: node 0 transmits again — host 1 overhears but is no longer
	// active, so nothing is counted; node 4 transmits — host 3 counts.
	for i := uint64(11); i <= 15; i++ {
		nodes[0].SendMac(dataPkt(uids, 0, i), 1)
	}
	for i := uint64(14); i <= 20; i++ { // overlaps phase-2 range, new to the union
		nodes[4].SendMac(dataPkt(uids, 4, i), 3)
	}
	sched.RunUntil(sim.Time(9 * sim.Second))

	members := m.Members()
	if members[0].Distinct != 10 {
		t.Fatalf("member 1 distinct = %d, want 10 (inactive tap must not count)", members[0].Distinct)
	}
	if members[1].Distinct != 7 {
		t.Fatalf("member 3 distinct = %d, want 7", members[1].Distinct)
	}
	if m.Distinct() != members[0].Distinct+members[1].Distinct {
		t.Fatalf("union %d != sum of first-heard members %d+%d",
			m.Distinct(), members[0].Distinct, members[1].Distinct)
	}

	// The tour wraps: after another interval the tap is back on node 1.
	sched.RunUntil(sim.Time(11 * sim.Second))
	if m.Active() != 1 {
		t.Fatalf("vantage after wrap = %d, want 1", m.Active())
	}
}

// TestDropperPolicy: a blackhole discards transit data only — its own
// originations and control traffic pass — and a grayhole drops a fraction.
func TestDropperPolicy(t *testing.T) {
	sched, nodes, uids := buildNet(t, line())
	d, err := Build(Spec{Model: ModelBlackhole}, nodes[1:2], nil)
	if err != nil {
		t.Fatal(err)
	}

	// Transit data (originated elsewhere): dropped silently.
	for i := uint64(1); i <= 5; i++ {
		nodes[1].SendMac(dataPkt(uids, 0, i), 2)
	}
	// Own origination: passes.
	nodes[1].SendMac(dataPkt(uids, 1, 100), 2)
	// Routing control: passes.
	nodes[1].SendMac(&packet.Packet{
		UID: uids.Next(), Kind: packet.KindRREQ, Size: 64, Src: 0, Dst: 4, TTL: 8,
	}, packet.Broadcast)
	sched.RunUntil(sim.Time(5 * sim.Second))

	if d.Dropped() != 5 {
		t.Fatalf("dropped = %d, want 5 (transit data only)", d.Dropped())
	}
	if nodes[1].Mac.Stats.FramesSent[packet.FrameData] != 2 {
		t.Fatalf("frames sent = %d, want 2 (own data + RREQ)",
			nodes[1].Mac.Stats.FramesSent[packet.FrameData])
	}

	// Grayhole at rate 0.5: over many transit packets it drops some but
	// not all (the exact count is pinned by the seeded RNG).
	sched2, nodes2, uids2 := buildNet(t, line())
	g, err := Build(Spec{Model: ModelGrayhole, DropRate: 0.5}, nodes2[1:2], sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	const total = 200
	for i := uint64(1); i <= total; i++ {
		nodes2[1].SendMac(dataPkt(uids2, 0, i), 2)
	}
	sched2.RunUntil(sim.Time(60 * sim.Second))
	if g.Dropped() == 0 || g.Dropped() == total {
		t.Fatalf("grayhole dropped %d of %d, want a strict fraction", g.Dropped(), total)
	}
}

// TestSpecDefaults pins the Spec helpers the sweep axis builds on.
func TestSpecDefaults(t *testing.T) {
	cases := []struct {
		spec Spec
		k    int
		lbl  string
	}{
		{Spec{}, 1, "eavesdropper×1"},
		// A model-less multi-vantage spec resolves to a coalition
		// everywhere (label, Build, scenario wiring).
		{Spec{K: 2}, 2, "coalition×2"},
		{Spec{Model: ModelCoalition, K: 4}, 4, "coalition×4"},
		{Spec{Model: ModelMobile}, 1, "mobile×1"},
		{Spec{Model: ModelGrayhole, Nodes: []packet.NodeID{3, 5}}, 2, "grayhole×2"},
		// Tuning knobs appear in the label so differently-tuned specs
		// never share an aggregation cell.
		{Spec{Model: ModelGrayhole, K: 2, DropRate: 0.3}, 2, "grayhole×2@p0.3"},
		{Spec{Model: ModelMobile, K: 3, Interval: 5 * sim.Second}, 3, "mobile×3@5s"},
	}
	for _, c := range cases {
		if got := c.spec.EffectiveK(); got != c.k {
			t.Fatalf("%+v EffectiveK = %d, want %d", c.spec, got, c.k)
		}
		if got := c.spec.Label(); got != c.lbl {
			t.Fatalf("%+v Label = %q, want %q", c.spec, got, c.lbl)
		}
	}
	if len(Models()) != 8 {
		t.Fatalf("models = %v", Models())
	}
}

// TestBuildValidation: unknown models and knobs the model would ignore
// fail Validate, host sets Build cannot use fail Build, and every known
// model builds.
func TestBuildValidation(t *testing.T) {
	_, nodes, _ := buildNet(t, line())
	if err := (Spec{Model: "quantum"}).Validate(); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Build(Spec{Model: "quantum"}, nodes[1:2], nil); err == nil {
		t.Fatal("unknown model built")
	}
	if _, err := Build(Spec{}, nil, nil); err == nil {
		t.Fatal("empty host set accepted")
	}
	if _, err := Build(Spec{Model: ModelEavesdropper}, nodes[1:3], nil); err == nil {
		t.Fatal("eavesdropper with 2 hosts accepted")
	}
	if _, err := Build(Spec{Model: ModelWormhole}, nodes[1:4], nil); err == nil {
		t.Fatal("wormhole with 3 endpoints accepted")
	}
	if err := (Spec{Model: ModelCoalition, DropRate: 0.4}).Validate(); err == nil {
		t.Fatal("DropRate on a passive coalition accepted")
	}
	if err := (Spec{Model: ModelBlackhole, Interval: sim.Second}).Validate(); err == nil {
		t.Fatal("Interval on a static blackhole accepted")
	}
	// Out-of-range knobs the model would otherwise reinterpret: a rate
	// above 1 drops everything, a negative one falls back to 0.5, a
	// negative K to one host and a negative Interval to 10 s.
	for _, bad := range []Spec{
		{Model: ModelGrayhole, DropRate: 1.7},
		{Model: ModelGrayhole, DropRate: -0.3},
		{Model: ModelCoalition, K: -2},
		{K: -1},
		{Model: ModelMobile, Interval: -sim.Second},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate(%+v) accepted an out-of-range knob", bad)
		}
	}
	for _, ok := range []Spec{{}, {K: 3}, {Model: ModelGrayhole, DropRate: 0.3}, {Model: ModelGrayhole, DropRate: 1}, {Model: ModelAdaptive, Interval: sim.Second}} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v", ok, err)
		}
	}
	rng := sim.NewRNG(1)
	for _, model := range Models() {
		hosts := nodes[1:2]
		if model == ModelCoalition || model == ModelMobile || model == ModelWormhole {
			hosts = nodes[1:3]
		}
		adv, err := Build(Spec{Model: model}, hosts, rng)
		if err != nil {
			t.Fatalf("model %s: %v", model, err)
		}
		if adv.Model() != model {
			t.Fatalf("model %s reported as %s", model, adv.Model())
		}
		if len(adv.Members()) != len(hosts) {
			t.Fatalf("model %s members = %d, want %d", model, len(adv.Members()), len(hosts))
		}
	}
}
