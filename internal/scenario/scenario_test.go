package scenario

import (
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// staticChain returns a linear placement with 200m spacing: 0-1-2-...-k,
// only adjacent nodes in the 250m radio range.
func staticChain(k int) []geo.Point {
	pts := make([]geo.Point, k+1)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * 200, Y: 0}
	}
	return pts
}

// pointsDiamondUnequal builds two disjoint branches of different length
// between node 0 and node 3: 0-1-3 (2 hops) and 0-4-5-3 (3 hops).
func pointsDiamondUnequal() []geo.Point {
	return []geo.Point{
		{X: 0, Y: 200},   // 0 source
		{X: 150, Y: 350}, // 1 short branch relay
		{X: 800, Y: 800}, // 2 bystander (eavesdropper candidate parking)
		{X: 300, Y: 200}, // 3 destination
		{X: 80, Y: 40},   // 4 long branch relay A
		{X: 250, Y: 20},  // 5 long branch relay B
	}
}

// fieldFor returns a bounding field comfortably containing the points.
func fieldFor(pts []geo.Point) geo.Rect {
	maxX, maxY := 0.0, 0.0
	for _, p := range pts {
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	return geo.Field(maxX+100, maxY+100)
}

// chainConfig builds a short static-chain config for the given protocol.
func chainConfig(proto string, hops int, dur sim.Duration) Config {
	cfg := DefaultConfig()
	cfg.Protocol = proto
	cfg.Placement = staticChain(hops)
	cfg.Field = geo.Field(float64(hops)*200+100, 100)
	cfg.Duration = dur
	cfg.TCPStart = sim.Time(100 * sim.Millisecond)
	cfg.Flows = []FlowSpec{{Src: 0, Dst: packet.NodeID(hops)}}
	cfg.Adversary.Nodes = []packet.NodeID{1}
	return cfg
}

func TestStaticChainAllProtocols(t *testing.T) {
	for _, proto := range Protocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			cfg := chainConfig(proto, 3, 20*sim.Second)
			m, err := RunOne(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.Distinct < 100 {
				t.Fatalf("%s: only %d distinct packets over 20s on a 3-hop chain", proto, m.Distinct)
			}
			if m.DeliveryRate < 0.9 {
				t.Fatalf("%s: delivery rate %.3f on a static chain", proto, m.DeliveryRate)
			}
			if m.AvgDelaySec <= 0 || m.AvgDelaySec > 1 {
				t.Fatalf("%s: avg delay %.4fs implausible", proto, m.AvgDelaySec)
			}
			// Exactly nodes 1 and 2 relay.
			if m.Participating != 2 {
				t.Fatalf("%s: participating = %d, want 2", proto, m.Participating)
			}
			// Eavesdropper (node 1) is on the only path: intercepts ~everything.
			if m.InterceptionRatio < 0.95 {
				t.Fatalf("%s: interception = %.3f, want ~1 on single path", proto, m.InterceptionRatio)
			}
			if m.ControlPkts == 0 {
				t.Fatalf("%s: zero control packets", proto)
			}
		})
	}
}

func TestStaticDiamondMTSUsesBothPaths(t *testing.T) {
	// Diamond: 0 at left, 3 at right, 1 and 2 as two disjoint relays.
	// Leg length 212m (in range), endpoint separation 300m (out of range),
	// relay separation 300m (out of range): exactly two disjoint paths.
	// MTS's checking/switching should spread traffic over both relays.
	pts := []geo.Point{
		{X: 0, Y: 200}, {X: 150, Y: 350}, {X: 150, Y: 50}, {X: 300, Y: 200},
	}
	cfg := DefaultConfig()
	cfg.Protocol = "MTS"
	cfg.Placement = pts
	cfg.Field = geo.Field(500, 500)
	cfg.Duration = 60 * sim.Second
	cfg.TCPStart = sim.Time(100 * sim.Millisecond)
	cfg.Flows = []FlowSpec{{Src: 0, Dst: 3}}
	cfg.Adversary.Nodes = []packet.NodeID{1}

	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Run()
	if m.DeliveryRate < 0.9 {
		t.Fatalf("delivery = %.3f", m.DeliveryRate)
	}
	if m.Extra["pathsStored"] < 2 {
		t.Fatalf("destination stored %d paths, want 2", m.Extra["pathsStored"])
	}
	if m.Extra["checks"] == 0 {
		t.Fatal("no checking packets sent")
	}
	// Both relays participated (MTS spreads load across disjoint paths).
	if m.Participating != 2 {
		t.Fatalf("participating = %d, want both relays", m.Participating)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := chainConfig("MTS", 3, 10*sim.Second)
	a, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Distinct != b.Distinct || a.Arrivals != b.Arrivals ||
		a.ControlPkts != b.ControlPkts || a.EventsRun != b.EventsRun {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 10 * sim.Second
	cfg.Nodes = 20
	cfg.MaxSpeed = 10
	a, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.EventsRun == b.EventsRun && a.Distinct == b.Distinct {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestMobile50NodeSmoke(t *testing.T) {
	// The paper's full setup at reduced duration: all three protocols
	// must move TCP data end to end under mobility.
	for _, proto := range Protocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Protocol = proto
			cfg.Duration = 30 * sim.Second
			cfg.MaxSpeed = 10
			cfg.Seed = 3
			m, err := RunOne(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.Distinct == 0 {
				t.Fatalf("%s: no data delivered at all under mobility", proto)
			}
			if m.Participating == 0 && m.Distinct == 0 {
				t.Fatalf("%s: dead network", proto)
			}
			t.Logf("%s: distinct=%d delivery=%.3f delay=%.4fs participating=%d control=%d events=%d",
				proto, m.Distinct, m.DeliveryRate, m.AvgDelaySec, m.Participating,
				m.ControlPkts, m.EventsRun)
		})
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = "OSPF"
	if _, err := Build(cfg); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	cfg = DefaultConfig()
	cfg.Nodes = 1
	if _, err := Build(cfg); err == nil {
		t.Fatal("1-node scenario accepted")
	}
	cfg = DefaultConfig()
	cfg.Flows = []FlowSpec{{Src: 0, Dst: 0}}
	if _, err := Build(cfg); err == nil {
		t.Fatal("self-flow accepted")
	}
	cfg = DefaultConfig()
	cfg.Adversary.Nodes = []packet.NodeID{500}
	if _, err := Build(cfg); err == nil {
		t.Fatal("out-of-range eavesdropper accepted")
	}
}

func TestRandomFlowAndEavesdropperSelection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = sim.Second
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Flows) != 1 {
		t.Fatalf("flows = %d", len(s.Flows))
	}
	f := s.Flows[0]
	if f.Src == f.Dst {
		t.Fatal("random flow has identical endpoints")
	}
	if ev := s.Adversary.Members()[0].Node; ev == f.Src || ev == f.Dst {
		t.Fatal("eavesdropper is a flow endpoint")
	}
}

func TestEavesdropperInterceptsOnChain(t *testing.T) {
	cfg := chainConfig("AODV", 3, 10*sim.Second)
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Run()
	ev := s.Adversary.Members()[0]
	if ev.Distinct == 0 {
		t.Fatal("on-path eavesdropper intercepted nothing")
	}
	if ev.Frames < ev.Distinct {
		t.Fatal("frame count below distinct count")
	}
	if m.InterceptionRatio <= 0 || m.InterceptionRatio > 1.2 {
		t.Fatalf("interception ratio = %.3f out of plausible range", m.InterceptionRatio)
	}
}

func TestOffPathEavesdropperInterceptsNothing(t *testing.T) {
	// Chain with a far-away eavesdropper out of radio range of everyone.
	pts := staticChain(3)
	pts = append(pts, geo.Point{X: 0, Y: 900})
	cfg := chainConfig("AODV", 3, 10*sim.Second)
	cfg.Placement = pts
	cfg.Field = geo.Field(1000, 1000)
	cfg.Adversary.Nodes = []packet.NodeID{4}
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Run()
	if m.InterceptionRatio != 0 {
		t.Fatalf("out-of-range eavesdropper intercepted %.3f", m.InterceptionRatio)
	}
	if m.Distinct == 0 {
		t.Fatal("chain itself failed")
	}
}

func TestRelayTableConsistency(t *testing.T) {
	cfg := chainConfig("DSR", 4, 15*sim.Second)
	m, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	var gammaSum float64
	for _, row := range m.RelayRows {
		sum += row.Beta
		gammaSum += row.Gamma
	}
	if sum != m.Alpha {
		t.Fatalf("Σβ=%d != α=%d", sum, m.Alpha)
	}
	if gammaSum < 0.999 || gammaSum > 1.001 {
		t.Fatalf("Σγ = %v, want 1", gammaSum)
	}
	if m.RelayStdDev < 0 || m.RelayStdDev > 1 {
		t.Fatalf("σ = %v out of range", m.RelayStdDev)
	}
}
