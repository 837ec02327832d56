package scenario

import (
	"testing"

	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// The related-work baselines must run end-to-end over the real stack.
func TestSMRVariantsOnStaticChain(t *testing.T) {
	for _, proto := range []string{"SMR", "SMR-BACKUP"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			cfg := chainConfig(proto, 3, 15*sim.Second)
			m, err := RunOne(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.Distinct < 100 {
				t.Fatalf("%s delivered only %d packets on a static chain", proto, m.Distinct)
			}
			if m.DeliveryRate < 0.9 {
				t.Fatalf("%s delivery = %.3f", proto, m.DeliveryRate)
			}
		})
	}
}

// Lim et al. (ICC 2003), the result the paper's §II leans on: TCP over
// concurrently split multipath performs worse than using one path at a
// time, because out-of-order arrivals trigger unnecessary congestion
// control. A diamond with one longer branch makes the reordering visible.
func TestSplitMultipathHurtsTCP(t *testing.T) {
	// 0 -> {1} -> 3 (2 hops) and 0 -> {4,5} -> 3 (3 hops): unequal-delay
	// disjoint branches.
	cfg := DefaultConfig()
	cfg.Placement = pointsDiamondUnequal()
	cfg.Field = fieldFor(cfg.Placement)
	cfg.Duration = 40 * sim.Second
	cfg.TCPStart = sim.Time(500 * sim.Millisecond)
	cfg.Flows = []FlowSpec{{Src: 0, Dst: 3}}
	cfg.Adversary.Nodes = []packet.NodeID{1}

	run := func(proto string) float64 {
		c := cfg
		c.Protocol = proto
		m, err := RunOne(c)
		if err != nil {
			t.Fatal(err)
		}
		return m.ThroughputPps
	}
	split := run("SMR")
	backup := run("SMR-BACKUP")
	if split >= backup {
		t.Fatalf("split multipath (%.1f pkt/s) should underperform single-path backup (%.1f pkt/s) for TCP",
			split, backup)
	}
}
