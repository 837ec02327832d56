package scenario

import (
	"encoding/json"
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/sim"
)

// metricsJSON canonicalizes a run's metrics for byte-level comparison.
func metricsJSON(t *testing.T, cfg Config, run func(Config) (*Scenario, error)) []byte {
	t.Helper()
	s, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Run()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestContextReuseBitIdentical drives one Context through every protocol —
// including immediate same-config re-runs — and demands byte-identical
// metrics against fresh Builds. This is the load-bearing guarantee of the
// sweep engine's per-worker context reuse: re-seeding recycled RNG
// sources and re-reading cached labels must be observationally
// indistinguishable from allocating them.
func TestContextReuseBitIdentical(t *testing.T) {
	ctx := NewContext()
	for _, proto := range AllProtocols() {
		cfg := goldenConfig(proto)
		fresh := metricsJSON(t, cfg, Build)
		for round := 0; round < 2; round++ {
			reused := metricsJSON(t, cfg, ctx.Build)
			if string(fresh) != string(reused) {
				t.Fatalf("%s round %d: context-reused metrics diverge\nfresh:  %s\nreused: %s",
					proto, round, fresh, reused)
			}
		}
	}
}

// TestContextReuseAcrossShapes re-runs with a different node count, field
// and traffic type between repetitions, so the RNG recycler and label
// caches must grow and shrink without leaking state across runs.
func TestContextReuseAcrossShapes(t *testing.T) {
	small := DefaultConfig()
	small.Nodes = 10
	small.Duration = 4 * sim.Second
	small.TCPStart = sim.Time(sim.Second)
	small.Seed = 3

	big := DefaultConfig()
	big.Nodes = 60
	big.Field = geo.Field(1200, 800)
	big.Duration = 4 * sim.Second
	big.TCPStart = sim.Time(sim.Second)
	big.Traffic = "cbr"
	big.Seed = 4

	ctx := NewContext()
	for _, cfg := range []Config{small, big, small, big} {
		want := metricsJSON(t, cfg, Build)
		got := metricsJSON(t, cfg, ctx.Build)
		if string(want) != string(got) {
			t.Fatalf("shape %d nodes: reused metrics diverge\nfresh:  %s\nreused: %s",
				cfg.Nodes, want, got)
		}
	}
}
