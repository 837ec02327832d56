package scenario

import (
	"encoding/json"
	"testing"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/metrics"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// assertArenaClean fails the test unless the scenario's (already retired)
// arena accounts for every packet and frame it ever handed out: zero
// live, zero double releases, zero foreign releases, zero writes after
// release. This is the leak-detecting harness around the packet pool — a
// new call site that forgets its Release (or releases twice) fails here
// with the exact counter that moved.
func assertArenaClean(t *testing.T, a *packet.Arena) {
	t.Helper()
	st := a.Stats()
	if live := a.LivePackets(); live != 0 {
		t.Errorf("leak: %d live packets after retire (acquired %d, released %d)",
			live, st.PacketsAcquired, st.PacketsReleased)
	}
	if live := a.LiveFrames(); live != 0 {
		t.Errorf("leak: %d live frames after retire (acquired %d, released %d)",
			live, st.FramesAcquired, st.FramesReleased)
	}
	if st.DoubleReleases != 0 {
		t.Errorf("%d double releases", st.DoubleReleases)
	}
	if st.ForeignReleases != 0 {
		t.Errorf("%d foreign releases (non-arena packets fed to Release)", st.ForeignReleases)
	}
	if st.PoisonTrips != 0 {
		t.Errorf("%d writes through released packets", st.PoisonTrips)
	}
	if st.PacketsAcquired == 0 {
		t.Error("arena saw no traffic: the scenario is not wired through it")
	}
}

// assertMatchesFresh fails the test unless m, the metrics of a run built
// on a reused Context, are byte-identical to a fresh Build of the same
// config. The leak suites walk one context through adversary × defence
// combinations that no golden fixture reaches, so this is where state
// leaking from one run into the next would show.
func assertMatchesFresh(t *testing.T, cfg Config, m *metrics.RunMetrics) {
	t.Helper()
	reused, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if fresh := metricsJSON(t, cfg, Build); string(fresh) != string(reused) {
		t.Errorf("reused-context metrics diverge from a fresh build\nfresh:  %s\nreused: %s", fresh, reused)
	}
}

// arenaLeakConfig is a full mobile 50-node run, short enough to grid over
// every protocol × adversary model.
func arenaLeakConfig(proto string) Config {
	cfg := DefaultConfig()
	cfg.Protocol = proto
	cfg.MaxSpeed = 10
	cfg.Duration = 8 * sim.Second
	cfg.TCPStart = sim.Time(2 * sim.Second)
	cfg.Seed = 5
	return cfg
}

// TestArenaLeakAccountingAllProtocols runs every protocol × adversary
// model under the arena's debug mode and demands a clean ledger at run
// end: every acquired packet and frame released exactly once. MAC queues,
// in-flight exchanges, jittered re-broadcasts and send buffers are
// drained by Scenario.Retire; everything else must have hit an explicit
// release point during the run. One context serves every run, in a
// fixed order, and each run must match a fresh build of its config.
func TestArenaLeakAccountingAllProtocols(t *testing.T) {
	adversaries := []struct {
		name string
		spec adversary.Spec
	}{
		{"legacy", adversary.Spec{}},
		{"coalition", adversary.Spec{Model: adversary.ModelCoalition, K: 3}},
		{"mobile", adversary.Spec{Model: adversary.ModelMobile, K: 3, Interval: 2 * sim.Second}},
		{"blackhole", adversary.Spec{Model: adversary.ModelBlackhole, K: 2}},
		{"grayhole", adversary.Spec{Model: adversary.ModelGrayhole, K: 2, DropRate: 0.5}},
		// The route-discovery attackers hold state of their own: adaptive
		// re-taps on a timer, the wormhole claims control packets into its
		// tunnel (Retire must drain any still in flight at the horizon).
		{"adaptive", adversary.Spec{Model: adversary.ModelAdaptive, K: 3, Interval: 2 * sim.Second}},
		{"wormhole", adversary.Spec{Model: adversary.ModelWormhole}},
		{"rushing", adversary.Spec{Model: adversary.ModelRushing, K: 2}},
	}
	ctx := NewContext()
	for _, proto := range AllProtocols() {
		for _, adv := range adversaries {
			t.Run(proto+"/"+adv.name, func(t *testing.T) {
				cfg := arenaLeakConfig(proto)
				cfg.Adversary = adv.spec
				s, err := ctx.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.Arena.Check = true
				m := s.Run()
				if m.SegmentsSent == 0 {
					t.Fatalf("no traffic generated; leak accounting proved nothing")
				}
				s.Retire()
				assertArenaClean(t, s.Arena)
				assertMatchesFresh(t, cfg, m)
			})
		}
	}
}

// TestArenaLeakAccountingCountermeasures extends the leak suite over the
// defender axis: the shuffler claims packets out of the originate path
// and owns them until Inject or Retire, so every (protocol, defence)
// pairing must still close the arena ledger. Shuffle runs cover the
// claim/inject path on all five protocols; the MTS-only rows cover
// aware-dispersal; the slow-hold row retires a scenario whose shuffle
// blocks are still buffered at the horizon. As in the adversary suite,
// every run on the shared context must match a fresh build.
func TestArenaLeakAccountingCountermeasures(t *testing.T) {
	cases := []struct {
		name  string
		proto string
		spec  countermeasure.Spec
	}{
		{"dsr/shuffle+aware", "DSR", countermeasure.Spec{Model: countermeasure.ModelShuffleAware}},
		{"aodv/shuffle+aware", "AODV", countermeasure.Spec{Model: countermeasure.ModelShuffleAware}},
		{"mts/shuffle+aware", "MTS", countermeasure.Spec{Model: countermeasure.ModelShuffleAware}},
		{"smr/shuffle+aware", "SMR", countermeasure.Spec{Model: countermeasure.ModelShuffleAware}},
		{"smr-backup/shuffle+aware", "SMR-BACKUP", countermeasure.Spec{Model: countermeasure.ModelShuffleAware}},
		{"mts/shuffle", "MTS", countermeasure.Spec{Model: countermeasure.ModelShuffle}},
		{"mts/aware", "MTS", countermeasure.Spec{Model: countermeasure.ModelAware}},
		// A hold longer than the residual run strands part-filled blocks
		// in the shuffler at the horizon; Retire must release them.
		{"mts/stranded-blocks", "MTS", countermeasure.Spec{
			Model: countermeasure.ModelShuffle, Depth: 64, Hold: 2 * sim.Second}},
		// Trust attaches a monitor to every node (watchdog obligations are
		// plain state, no packet custody) — the ledger must still close on
		// both a source-routed and a table-driven protocol.
		{"dsr/trust", "DSR", countermeasure.Spec{Model: countermeasure.ModelTrust}},
		{"mts/trust", "MTS", countermeasure.Spec{Model: countermeasure.ModelTrust}},
	}
	ctx := NewContext()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := arenaLeakConfig(tc.proto)
			cfg.Adversary = adversary.Spec{Model: adversary.ModelCoalition, K: 2}
			cfg.Countermeasure = tc.spec
			s, err := ctx.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Arena.Check = true
			m := s.Run()
			if m.SegmentsSent == 0 {
				t.Fatalf("no traffic generated; leak accounting proved nothing")
			}
			s.Retire()
			assertArenaClean(t, s.Arena)
			assertMatchesFresh(t, cfg, m)
		})
	}
}

// TestArenaOnOffSameMetrics is the determinism regression through the
// pooled path: the same seed must produce byte-identical RunMetrics with
// recycling on and with the reference no-recycling mode (Pooling=false),
// for every protocol. Any use-after-release, premature reuse or
// pool-induced behaviour change shows up as a metrics diff here.
func TestArenaOnOffSameMetrics(t *testing.T) {
	for _, proto := range AllProtocols() {
		cfg := goldenConfig(proto)
		pooled := metricsJSON(t, cfg, Build)
		reference := metricsJSON(t, cfg, func(c Config) (*Scenario, error) {
			s, err := Build(c)
			if err != nil {
				return nil, err
			}
			s.Arena.Pooling = false // reference mode: account, never reuse
			return s, nil
		})
		if string(pooled) != string(reference) {
			t.Errorf("%s: pooled metrics diverge from reference mode\npooled:    %s\nreference: %s",
				proto, pooled, reference)
		}
	}
}

// TestArenaGridVsLinearThroughPool re-locks the PR 1 grid-vs-linear
// equivalence with the pooled data plane: receiver lookup strategy and
// packet recycling must compose without touching a single metric byte.
func TestArenaGridVsLinearThroughPool(t *testing.T) {
	cfg := goldenConfig("MTS")
	grid := metricsJSON(t, cfg, Build)
	linear := metricsJSON(t, cfg, func(c Config) (*Scenario, error) {
		s, err := Build(c)
		if err != nil {
			return nil, err
		}
		s.Channel.UseLinearScan(true)
		return s, nil
	})
	if string(grid) != string(linear) {
		t.Errorf("grid and linear scans diverge through the pooled path\ngrid:   %s\nlinear: %s", grid, linear)
	}
}

// TestRetireIsIdempotent: a second Retire must find nothing left to
// release (no double releases), so test harnesses can call it defensively.
func TestRetireIsIdempotent(t *testing.T) {
	s, err := Build(arenaLeakConfig("MTS"))
	if err != nil {
		t.Fatal(err)
	}
	s.Arena.Check = true
	s.Run()
	s.Retire()
	s.Retire()
	assertArenaClean(t, s.Arena)
}
