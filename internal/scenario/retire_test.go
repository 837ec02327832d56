package scenario

import (
	"encoding/json"
	"math"
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// bufferedRouter is satisfied by all four protocols' routers.
type bufferedRouter interface{ Buffered() int }

// partitionedConfig builds a topology whose flow destination is
// unreachable: node 0 (source) and node 2 (the pinned eavesdropper) sit
// together, node 1 (destination) is far outside radio range. Discovery
// never completes within the horizon, so data packets are still sitting
// in the router's send buffer when the run ends.
func partitionedConfig(proto string) Config {
	cfg := DefaultConfig()
	cfg.Protocol = proto
	cfg.Placement = []geo.Point{{X: 0, Y: 0}, {X: 5000, Y: 5000}, {X: 100, Y: 0}}
	cfg.Flows = []FlowSpec{{Src: 0, Dst: 1}}
	cfg.Adversary.Nodes = []packet.NodeID{2}
	cfg.Duration = 5 * sim.Second
	cfg.TCPStart = sim.Time(sim.Second)
	cfg.Seed = 11
	return cfg
}

// TestRetireDrainsRouterBuffers is the retire-drainage audit for the
// router-held send buffers (routing.SendBuffer byDst): for every
// protocol, packets that are still buffered awaiting discovery at the
// run horizon must hit the arena ledger exactly once when
// Scenario.Retire drains the node — no leak (a live packet after
// retire), no double release. The context is reused across protocols, so
// each audit after the first derives its streams from labels cached by
// the previous run.
func TestRetireDrainsRouterBuffers(t *testing.T) {
	ctx := NewContext()
	for _, proto := range AllProtocols() {
		t.Run(proto, func(t *testing.T) {
			s, err := ctx.Build(partitionedConfig(proto))
			if err != nil {
				t.Fatal(err)
			}
			s.Arena.Check = true
			s.Run()
			br, ok := s.Nodes[0].Proto.(bufferedRouter)
			if !ok {
				t.Fatalf("%T does not expose Buffered()", s.Nodes[0].Proto)
			}
			if br.Buffered() == 0 {
				t.Fatal("no packets buffered at the horizon; the audit proved nothing")
			}
			if live := s.Arena.LivePackets(); live == 0 {
				t.Fatal("ledger shows no live packets despite a non-empty send buffer")
			}
			s.Retire()
			assertArenaClean(t, s.Arena)
		})
	}
}

// spotCheck1000Config is the acceptance scenario: 1000 nodes at the
// paper's 50-node density (side grows with sqrt(n)), 20 TCP flows, run
// under watchdog defaults (the CLI's unlimited Budget).
func spotCheck1000Config() Config {
	cfg := DefaultConfig()
	cfg.Protocol = "MTS"
	cfg.Nodes = 1000
	side := 1000 * math.Sqrt(1000.0/50.0)
	cfg.Field = geo.Field(side, side)
	cfg.Duration = 4 * sim.Second
	cfg.TCPStart = sim.Time(sim.Second)
	cfg.Seed = 9
	for i := 0; i < 20; i++ {
		cfg.Flows = append(cfg.Flows, FlowSpec{
			Src: packet.NodeID(i), Dst: packet.NodeID(500 + i),
		})
	}
	return cfg
}

// TestArenaSpotCheck1000Nodes is the large-scale leak spot-check: a
// 1000-node, 20-flow run with the full ledger armed must close its books
// at retire — zero live packets, zero double releases, zero foreign
// releases — and a second run on the same reused context must produce
// byte-identical metrics (the functional definition of "nothing of the
// first run survives into the second").
func TestArenaSpotCheck1000Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node spot check skipped in -short mode")
	}
	cfg := spotCheck1000Config()
	ctx := NewContext()

	runOnce := func() []byte {
		s, err := ctx.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Arena.Check = true
		m, err := s.RunWatched(Budget{}) // watchdog defaults: unlimited
		if err != nil {
			t.Fatal(err)
		}
		if m.SegmentsSent == 0 {
			t.Fatal("no traffic generated; the spot check proved nothing")
		}
		s.Retire()
		assertArenaClean(t, s.Arena)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	run1 := runOnce()
	run2 := runOnce()
	if string(run1) != string(run2) {
		t.Errorf("second 1000-node run on the reused context diverges from its first run\nrun1: %s\nrun2: %s", run1, run2)
	}
}
