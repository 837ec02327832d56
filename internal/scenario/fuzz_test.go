package scenario

import (
	"errors"
	"math"
	"testing"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// pickModel returns models[idx] when idx indexes the list, and raw
// otherwise, so the fuzzer reaches every model by index and also tries
// arbitrary strings (the empty string being each spec's default).
func pickModel(models []string, idx uint8, raw string) string {
	if int(idx) < len(models) {
		return models[idx]
	}
	return raw
}

// FuzzScenarioSpecs drives the adversary and countermeasure specs, the
// only place a run's attacker and defender are declared, through Build
// and a short watched run. A pair both Validates accept may still fail
// Build (a pinned node out of range, more vantage points than
// non-endpoints), but must never panic, and a run that builds must end,
// completed or killed by its event budget, with a clean arena ledger.
func FuzzScenarioSpecs(f *testing.F) {
	f.Add(uint8(2), uint8(0), "", 0, []byte{}, int64(0), 0.0, uint8(0), "", 0, int64(0), 0.0, 0.0)
	f.Add(uint8(2), uint8(1), "", 2, []byte{}, int64(0), 0.0, uint8(3), "", 4, int64(10e6), 0.3, 0.0)
	f.Add(uint8(0), uint8(6), "", 0, []byte{1, 4}, int64(0), 0.0, uint8(4), "", 0, int64(0), 0.0, 0.5)
	f.Add(uint8(4), uint8(4), "", 1, []byte{5}, int64(0), 0.25, uint8(1), "", 2, int64(0), 0.0, 0.0)
	f.Add(uint8(2), uint8(5), "", 3, []byte{}, int64(1e9), 0.0, uint8(2), "", 0, int64(0), 0.15, 0.0)
	f.Add(uint8(1), uint8(255), "bogus", 0, []byte{}, int64(0), 0.0, uint8(255), "bogus", 0, int64(0), 0.0, 0.0)
	// A hold near the clock's range overflows the flush timer's deadline
	// (the scheduler panics on an event in the past); Validate must
	// reject it.
	f.Add(uint8(2), uint8(0), "", 0, []byte{}, int64(0), 0.0, uint8(1), "", 0, int64(math.MaxInt64), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, proto, advIdx uint8, advRaw string, k int, nodes []byte,
		interval int64, dropRate float64, cmIdx uint8, cmRaw string, depth int, hold int64,
		penalty, threshold float64) {
		if len(nodes) > 8 {
			t.Skip()
		}
		adv := adversary.Spec{
			Model:    pickModel(adversary.Models(), advIdx, advRaw),
			K:        k,
			Interval: sim.Duration(interval),
			DropRate: dropRate,
		}
		for _, b := range nodes {
			adv.Nodes = append(adv.Nodes, packet.NodeID(int8(b)))
		}
		cm := countermeasure.Spec{
			Model:     pickModel(countermeasure.Models(), cmIdx, cmRaw),
			Depth:     depth,
			Hold:      sim.Duration(hold),
			Penalty:   penalty,
			Threshold: threshold,
		}
		if adv.Validate() != nil || cm.Validate() != nil {
			return
		}

		cfg := DefaultConfig()
		cfg.Protocol = AllProtocols()[int(proto)%len(AllProtocols())]
		cfg.Placement = pointsDiamondUnequal()
		cfg.Field = fieldFor(cfg.Placement)
		cfg.Flows = []FlowSpec{{Src: 0, Dst: 3}}
		cfg.Duration = 2 * sim.Second
		cfg.TCPStart = sim.Time(100 * sim.Millisecond)
		cfg.Adversary = adv
		cfg.Countermeasure = cm
		s, err := Build(cfg)
		if err != nil {
			return
		}
		s.Arena.Check = true
		if _, err := s.RunWatched(Budget{MaxEvents: 40000}); err != nil {
			// A killed run was retired by the watchdog. It may have been
			// killed before any traffic started (a re-tap Interval of a
			// few nanoseconds is an event storm), so only the books are
			// checked.
			var abort *AbortError
			if !errors.As(err, &abort) {
				t.Fatalf("watched run failed without a budget kill: %v", err)
			}
			assertLedgerClosed(t, s.Arena)
			return
		}
		s.Retire()
		assertArenaClean(t, s.Arena)
	})
}
