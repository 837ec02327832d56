package mac_test

import (
	"testing"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/mac"
	"mtsim/internal/phy"
	"mtsim/internal/scenario"
	"mtsim/internal/sim"
)

// quietCase is one configuration TestSkippedEnergyEdgesNeverAct runs.
type quietCase struct {
	name string
	cfg  scenario.Config
}

// quietConfigs are the golden fixtures' configurations: every protocol
// plain, and the attack and defence pairings that reach the adversary
// and countermeasure hooks.
func quietConfigs() []quietCase {
	base := func(proto string) scenario.Config {
		cfg := scenario.DefaultConfig()
		cfg.Protocol = proto
		cfg.MaxSpeed = 10
		cfg.Duration = 12 * sim.Second
		cfg.TCPStart = sim.Time(2 * sim.Second)
		cfg.Seed = 5
		return cfg
	}
	with := func(proto string, adv adversary.Spec, cm string) scenario.Config {
		cfg := base(proto)
		cfg.Adversary = adv
		cfg.Countermeasure = countermeasure.Spec{Model: cm}
		return cfg
	}
	coalition := adversary.Spec{Model: adversary.ModelCoalition, K: 2}
	grayhole := adversary.Spec{Model: adversary.ModelGrayhole, K: 3}
	var cases []quietCase
	for _, proto := range scenario.AllProtocols() {
		cases = append(cases, quietCase{proto, base(proto)})
	}
	fast := base("AODV")
	fast.MaxSpeed = 20
	fast.Seed = 4
	return append(cases,
		quietCase{"mts-coalition", with("MTS", coalition, "")},
		quietCase{"mts-coalition-shuffle", with("MTS", coalition, countermeasure.ModelShuffle)},
		quietCase{"mts-coalition-aware", with("MTS", coalition, countermeasure.ModelAware)},
		quietCase{"dsr-wormhole-trust", with("DSR", adversary.Spec{Model: adversary.ModelWormhole}, countermeasure.ModelTrust)},
		quietCase{"aodv-rushing-trust", with("AODV", adversary.Spec{Model: adversary.ModelRushing, K: 2}, countermeasure.ModelTrust)},
		quietCase{"mts-adaptive-shuffle", with("MTS", adversary.Spec{Model: adversary.ModelAdaptive, Interval: 2 * sim.Second}, countermeasure.ModelShuffle)},
		quietCase{"mts-mobile", with("MTS", adversary.Spec{Model: adversary.ModelMobile, K: 3, Interval: 2 * sim.Second}, "")},
		quietCase{"dsr-blackhole", with("DSR", adversary.Spec{Model: adversary.ModelBlackhole, K: 3}, "")},
		quietCase{"mts-grayhole", with("MTS", grayhole, "")},
		quietCase{"mts-grayhole-trust", with("MTS", grayhole, countermeasure.ModelTrust)},
		quietCase{"aodv-fast", fast},
	)
}

// TestSkippedEnergyEdgesNeverAct runs every golden configuration with a
// check on each energy edge the channel skips because the radio was quiet:
// the MAC must be in a state where that callback does nothing, and calling
// it anyway must change none of its contention state. A MAC whose quiet
// flag is stale — a state write that bypasses the setter, a state missing
// from the rule, or the flag read before RxEnd could start contention —
// fails here.
func TestSkippedEnergyEdgesNeverAct(t *testing.T) {
	for _, tc := range quietConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			s, err := scenario.Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			macs := make(map[*phy.Radio]*mac.Mac, len(s.Nodes))
			for _, n := range s.Nodes {
				macs[n.Radio] = n.Mac
			}
			var skipped [2]int
			s.Channel.OnSkippedEdge = func(r *phy.Radio, up bool) {
				m := macs[r]
				if m.EdgeActs(up) {
					t.Fatalf("node %d at %v: skipped an energy edge (up=%v) its MAC acts on", r.ID, s.Sched.Now(), up)
				}
				before := m.Contention()
				if up {
					m.EnergyUp()
					skipped[1]++
				} else {
					m.EnergyDown()
					skipped[0]++
				}
				if m.Contention() != before {
					t.Fatalf("node %d at %v: a skipped energy edge (up=%v) changed the MAC", r.ID, s.Sched.Now(), up)
				}
			}
			if m := s.Run(); m.SegmentsSent == 0 {
				t.Fatal("degenerate run: no TCP segment sent")
			}
			if skipped[0] == 0 || skipped[1] == 0 {
				t.Fatalf("no edge skipped (down %d, up %d)", skipped[0], skipped[1])
			}
		})
	}
}
