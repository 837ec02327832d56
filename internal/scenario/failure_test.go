package scenario

import (
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// Failure injection through the PHY: a chosen link is force-corrupted for
// a window of time mid-run; every protocol must detect the break via MAC
// feedback, reroute (or pause), and recover once the link heals.
func TestLinkOutageRecoveryAllProtocols(t *testing.T) {
	for _, proto := range AllProtocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			// Diamond with two disjoint paths so rerouting is possible.
			cfg := DefaultConfig()
			cfg.Protocol = proto
			cfg.Placement = pointsDiamond()
			cfg.Field = fieldFor(cfg.Placement)
			cfg.Duration = 40 * sim.Second
			cfg.TCPStart = sim.Time(500 * sim.Millisecond)
			cfg.Flows = []FlowSpec{{Src: 0, Dst: 3}}
			cfg.Adversary.Nodes = []packet.NodeID{1}

			s, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Break every frame in/out of node 1 during [10s, 20s): the
			// short branch dies; only 0-2-3 works.
			s.Channel.DropFrame = func(f *packet.Frame, to packet.NodeID) bool {
				now := s.Sched.Now()
				if now < sim.Time(10*sim.Second) || now >= sim.Time(20*sim.Second) {
					return false
				}
				return f.TxFrom == 1 || to == 1
			}
			m := s.Run()

			if m.Distinct < 500 {
				t.Fatalf("%s: only %d distinct packets; outage not survived", proto, m.Distinct)
			}
			// Traffic flowed after the heal: the last delivery must be in
			// the final quarter of the run.
			if s.Sinks[0].Stats.LastArrival < sim.Time(30*sim.Second) {
				t.Fatalf("%s: last arrival at %v; no recovery after outage",
					proto, s.Sinks[0].Stats.LastArrival)
			}
		})
	}
}

// pointsDiamond: equal-length disjoint branches 0-1-3 and 0-2-3.
func pointsDiamond() []geo.Point {
	return []geo.Point{
		{X: 0, Y: 200}, {X: 150, Y: 350}, {X: 150, Y: 50}, {X: 300, Y: 200},
	}
}
