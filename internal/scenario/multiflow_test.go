package scenario

import (
	"testing"

	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// The scenario layer supports multiple concurrent TCP flows; the metrics
// aggregate across them.
func TestTwoFlowsAggregate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = "MTS"
	cfg.Placement = staticChain(4)
	cfg.Field = fieldFor(cfg.Placement)
	cfg.Duration = 20 * sim.Second
	cfg.TCPStart = sim.Time(500 * sim.Millisecond)
	cfg.Flows = []FlowSpec{{Src: 0, Dst: 4}, {Src: 4, Dst: 0}}
	cfg.Adversary.Nodes = []packet.NodeID{2}

	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Run()
	if len(s.Senders) != 2 || len(s.Sinks) != 2 {
		t.Fatalf("endpoints: %d senders, %d sinks", len(s.Senders), len(s.Sinks))
	}
	d0 := s.Sinks[0].Stats.Distinct
	d1 := s.Sinks[1].Stats.Distinct
	if d0 == 0 || d1 == 0 {
		t.Fatalf("flow starvation: %d / %d", d0, d1)
	}
	if m.Distinct != d0+d1 {
		t.Fatalf("aggregate distinct %d != %d + %d", m.Distinct, d0, d1)
	}
	// The middle node relays for both directions.
	if m.Participating < 3 {
		t.Fatalf("participating = %d", m.Participating)
	}
}

func TestFlowsShareMediumFairly(t *testing.T) {
	// Two opposite-direction flows on one chain must both make progress
	// (no starvation through the shared 802.11 medium). Which flow wins a
	// single run is a chaotic coin flip — one early capture snowballs
	// through TCP backoff — so the ratio is asserted over several seeds:
	// per seed each flow must clear a hard progress floor, and across
	// seeds the totals must balance (a systematic bias, unlike per-seed
	// luck, would survive the averaging).
	var t0, t1 float64
	for seed := int64(1); seed <= 4; seed++ {
		cfg := DefaultConfig()
		cfg.Protocol = "AODV"
		cfg.Placement = staticChain(3)
		cfg.Field = fieldFor(cfg.Placement)
		cfg.Duration = 20 * sim.Second
		cfg.TCPStart = sim.Time(500 * sim.Millisecond)
		cfg.Flows = []FlowSpec{{Src: 0, Dst: 3}, {Src: 3, Dst: 0}}
		cfg.Adversary.Nodes = []packet.NodeID{1}
		cfg.Seed = seed

		s, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		d0 := float64(s.Sinks[0].Stats.Distinct)
		d1 := float64(s.Sinks[1].Stats.Distinct)
		if d0 < 100 || d1 < 100 {
			t.Fatalf("seed %d: starved flow: %v / %v", seed, d0, d1)
		}
		t0 += d0
		t1 += d1
	}
	if ratio := t0 / t1; ratio < 0.33 || ratio > 3 {
		t.Fatalf("systematic unfairness between flows: %v vs %v", t0, t1)
	}
}
