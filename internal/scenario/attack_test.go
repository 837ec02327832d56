package scenario

import (
	"testing"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// wormholeChainConfig builds the engineered wormhole stage: an honest
// chain S(0)–A(1)–B(2)–C(3)–D(4) at 200 m spacing, with tunnel endpoint
// W1(5) a direct neighbour of only the source and W2(6) parked next to
// the destination, the two endpoints 800 m apart — far outside radio
// range, linked only by the out-of-band tunnel. The phantom link makes
// S→W1→W2→D look like 3 hops against the honest 4, and — because the
// tunnel carries unicast control across the phantom link — checking
// packets and route replies keep flowing over a path whose middle cannot
// carry a single data frame. That is the wormhole's deceit: the path
// looks fresh forever while every data packet routed into it dies at W1.
func wormholeChainConfig(proto string) Config {
	cfg := DefaultConfig()
	cfg.Protocol = proto
	cfg.Placement = []geo.Point{
		{X: 200, Y: 0},   // 0 S   source
		{X: 400, Y: 0},   // 1 A   honest relay
		{X: 600, Y: 0},   // 2 B   honest relay
		{X: 800, Y: 0},   // 3 C   honest relay
		{X: 1000, Y: 0},  // 4 D   destination
		{X: 100, Y: 170}, // 5 W1  tunnel endpoint, hears only S
		{X: 900, Y: 170}, // 6 W2  tunnel endpoint, hears C and D
	}
	cfg.Field = fieldFor(cfg.Placement)
	cfg.Flows = []FlowSpec{{Src: 0, Dst: 4}}
	cfg.Adversary = adversary.Spec{Model: adversary.ModelWormhole, Nodes: []packet.NodeID{5, 6}}
	cfg.Duration = 30 * sim.Second
	cfg.TCPStart = sim.Time(100 * sim.Millisecond)
	cfg.Seed = 7
	return cfg
}

// TestWormholeNoDuplicateDelivery is the scenario-level half of the
// tunnel's exactly-once property (the unit half lives in
// internal/adversary): a full run whose tunnel demonstrably carried
// control traffic and attracted data must close the arena ledger with
// zero live packets, zero double releases and zero foreign releases —
// a duplicate delivery of a tunnelled clone would surface as a double
// release the moment both recipients hand it back.
func TestWormholeNoDuplicateDelivery(t *testing.T) {
	for _, proto := range []string{"DSR", "MTS"} {
		t.Run(proto, func(t *testing.T) {
			s, err := Build(wormholeChainConfig(proto))
			if err != nil {
				t.Fatal(err)
			}
			s.Arena.Check = true
			m := s.Run()
			if s.Adversary.Tunnelled() == 0 {
				t.Fatal("tunnel carried nothing; the ledger check proved nothing")
			}
			if m.AdversaryAttracted == 0 {
				t.Fatal("phantom link attracted no data; the topology is not exercising the attack")
			}
			s.Retire()
			assertArenaClean(t, s.Arena)
			assertChannelDrained(t, s)
		})
	}
}

// TestTrustRoutesAroundWormhole is the attacker–defender acceptance
// check, run on MTS because the phantom path's deceit is sharpest there:
// the destination stores both disjoint paths, and the tunnelled checking
// packets arrive faster than any real path's, so the undefended source
// keeps (re-)electing the wormhole path all run long while its data dies
// at W1. The trust defence watches W1 never forward, distrusts it after
// a couple of expired watchdog obligations, and the dropDistrusted /
// switchTarget-veto selection pins the flow to the honest chain.
// Observable: the wormhole attracts strictly less data and delivery
// strictly improves.
func TestTrustRoutesAroundWormhole(t *testing.T) {
	base := wormholeChainConfig("MTS")
	undefended, err := RunOne(base)
	if err != nil {
		t.Fatal(err)
	}
	defended := base
	defended.Countermeasure = countermeasure.Spec{Model: countermeasure.ModelTrust}
	trusted, err := RunOne(defended)
	if err != nil {
		t.Fatal(err)
	}

	if undefended.AdversaryAttracted == 0 {
		t.Fatal("undefended wormhole attracted nothing; baseline proves nothing")
	}
	if trusted.Extra["trustDistrusted"] == 0 {
		t.Fatalf("trust defence never distrusted a link (forwards %d, drops %d)",
			trusted.Extra["trustForwards"], trusted.Extra["trustDrops"])
	}
	if trusted.AdversaryAttracted >= undefended.AdversaryAttracted {
		t.Errorf("trust did not starve the wormhole: attracted %d with trust, %d undefended",
			trusted.AdversaryAttracted, undefended.AdversaryAttracted)
	}
	// The undefended flow is starved outright (the phantom path keeps
	// winning every checking round); the defended flow must recover by a
	// wide margin, not a rounding artefact.
	if trusted.DeliveryRate < undefended.DeliveryRate+0.5 {
		t.Errorf("trust did not recover delivery: %.3f with trust, %.3f undefended",
			trusted.DeliveryRate, undefended.DeliveryRate)
	}
}

// TestRushingSameSeedDeterministic pins the rushing attack's determinism
// contract: the attack rewrites only the attacker's own forwarding delay
// after every protocol RNG draw has already happened, so (a) two
// same-seed rushing runs are byte-identical, and (b) against a passive
// coalition occupying the very same nodes and consuming the very same
// random streams, the rushed timing measurably changes route selection.
func TestRushingSameSeedDeterministic(t *testing.T) {
	cfg := arenaLeakConfig("AODV")
	cfg.Duration = 10 * sim.Second
	cfg.Adversary = adversary.Spec{Model: adversary.ModelRushing, K: 2}

	run1 := metricsJSON(t, cfg, Build)
	run2 := metricsJSON(t, cfg, Build)
	if string(run1) != string(run2) {
		t.Errorf("same-seed rushing runs diverge\nrun1: %s\nrun2: %s", run1, run2)
	}

	passive := cfg
	passive.Adversary = adversary.Spec{Model: adversary.ModelCoalition, K: 2}
	baseline := metricsJSON(t, passive, Build)
	if string(baseline) == string(run1) {
		t.Error("rushing run is byte-identical to the passive coalition on the same nodes — the attack changed nothing")
	}
}

// TestTrustContextReuseBitIdentical locks the trust defence into the
// recycler contract: a context whose routers were parked by a trustless
// run must rebind them to a trust-carrying environment (and back) with
// byte-identical metrics against fresh builds — the observable proof
// that RecycleInto nils the oracle and rebind re-reads routing.TrustOf.
func TestTrustContextReuseBitIdentical(t *testing.T) {
	trustCfg := arenaLeakConfig("DSR")
	trustCfg.Adversary = adversary.Spec{Model: adversary.ModelWormhole}
	trustCfg.Countermeasure = countermeasure.Spec{Model: countermeasure.ModelTrust}
	plainCfg := arenaLeakConfig("DSR")

	freshTrust := metricsJSON(t, trustCfg, Build)
	freshPlain := metricsJSON(t, plainCfg, Build)

	ctx := NewContext()
	// Park the routers with a trustless run first, then alternate: every
	// rebind must pick up (or drop) the oracle with no residue.
	if got := metricsJSON(t, plainCfg, ctx.Build); string(got) != string(freshPlain) {
		t.Fatalf("reused trustless run diverges\nfresh:  %s\nreused: %s", freshPlain, got)
	}
	if got := metricsJSON(t, trustCfg, ctx.Build); string(got) != string(freshTrust) {
		t.Fatalf("trust run on recycled trustless routers diverges\nfresh:  %s\nreused: %s", freshTrust, got)
	}
	if got := metricsJSON(t, plainCfg, ctx.Build); string(got) != string(freshPlain) {
		t.Fatalf("trustless run on recycled trust-run routers diverges — RecycleInto leaked the oracle\nfresh:  %s\nreused: %s", freshPlain, got)
	}
}
