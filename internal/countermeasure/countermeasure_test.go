package countermeasure

import (
	"testing"

	"mtsim/internal/node"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// fakeHost is a minimal Host: a scheduler, an arena, and a log of the
// packets the shuffler injected, in order.
type fakeHost struct {
	id       packet.NodeID
	sched    *sim.Scheduler
	arena    *packet.Arena
	filter   func(p *packet.Packet) bool
	injected []*packet.Packet
}

func newFakeHost() *fakeHost {
	sched := sim.NewScheduler()
	a := packet.NewArena(sched.Now)
	a.Check = true
	return &fakeHost{id: 1, sched: sched, arena: a}
}

func (h *fakeHost) ID() packet.NodeID         { return h.id }
func (h *fakeHost) Scheduler() *sim.Scheduler { return h.sched }
func (h *fakeHost) Arena() *packet.Arena      { return h.arena }
func (h *fakeHost) Inject(p *packet.Packet)   { h.injected = append(h.injected, p) }
func (h *fakeHost) AddStage(st node.Stage) {
	if st.Originate != nil {
		h.filter = st.Originate
	}
}

// originate pushes one data segment with the given DataID through the
// installed filter, as node.Originate would.
func (h *fakeHost) originate(t *testing.T, uids *packet.UIDSource, dataID uint64) *packet.Packet {
	t.Helper()
	p := h.arena.NewPacketFrom(packet.Packet{
		UID: uids.Next(), Kind: packet.KindData, Src: h.id, Dst: 2, TTL: 64, DataID: dataID,
	})
	if !h.filter(p) {
		t.Fatalf("shuffler declined data segment DataID=%d", dataID)
	}
	return p
}

func buildShuffler(t *testing.T, h *fakeHost, depth int, hold sim.Duration, seed int64) *Shuffler {
	t.Helper()
	return NewShuffler(h, sim.NewRNG(seed), depth, hold)
}

// TestShuffleIsPermutation is the no-loss/no-duplication property: every
// segment claimed by the shuffler is injected exactly once, blocks are
// permutations of their inputs, the order genuinely changes, and the same
// seed reproduces the same order.
func TestShuffleIsPermutation(t *testing.T) {
	run := func(seed int64) ([]uint64, *fakeHost) {
		h := newFakeHost()
		sh := buildShuffler(t, h, 8, 25*sim.Millisecond, seed)
		uids := &packet.UIDSource{}
		const n = 100
		for id := uint64(1); id <= n; id++ {
			h.originate(t, uids, id)
		}
		// Flush the trailing partial block via the hold timer.
		h.sched.RunUntil(sim.Time(sim.Second))
		if sh.Pending() != 0 {
			t.Fatalf("%d segments still buffered after hold expiry", sh.Pending())
		}
		var order []uint64
		for _, p := range h.injected {
			order = append(order, p.DataID)
		}
		return order, h
	}

	order, h := run(42)
	if len(order) != 100 {
		t.Fatalf("injected %d of 100 segments", len(order))
	}
	seen := map[uint64]bool{}
	for _, id := range order {
		if seen[id] {
			t.Fatalf("DataID %d injected twice", id)
		}
		seen[id] = true
	}
	for id := uint64(1); id <= 100; id++ {
		if !seen[id] {
			t.Fatalf("DataID %d lost", id)
		}
	}
	// Blocks preserve membership: block b holds exactly IDs (8b, 8b+8].
	for b := 0; b < 12; b++ {
		blockSet := map[uint64]bool{}
		for _, id := range order[b*8 : b*8+8] {
			blockSet[id] = true
		}
		for id := uint64(b*8 + 1); id <= uint64(b*8+8); id++ {
			if !blockSet[id] {
				t.Fatalf("block %d does not contain DataID %d: %v", b, id, order[b*8:b*8+8])
			}
		}
	}
	// The order must actually change somewhere (a 100-segment identity
	// permutation has probability (1/8!)^12).
	identity := true
	for i, id := range order {
		if id != uint64(i+1) {
			identity = false
			break
		}
	}
	if identity {
		t.Fatal("shuffler released every block in identity order")
	}
	// Determinism: same seed, same permutation.
	again, _ := run(42)
	for i := range order {
		if order[i] != again[i] {
			t.Fatalf("same seed diverged at position %d: %d vs %d", i, order[i], again[i])
		}
	}
	// All injected; nothing retained: the ledger closes without Retire.
	for _, p := range h.injected {
		h.arena.Release(p)
	}
	if live := h.arena.LivePackets(); live != 0 {
		t.Fatalf("%d packets live after releasing all injected", live)
	}
}

// TestShuffleHoldFlushesPartialBlock: a trickling sender (fewer segments
// than the block depth) waits at most hold before its block is released.
func TestShuffleHoldFlushesPartialBlock(t *testing.T) {
	h := newFakeHost()
	sh := buildShuffler(t, h, 8, 25*sim.Millisecond, 1)
	uids := &packet.UIDSource{}
	h.originate(t, uids, 1)
	h.originate(t, uids, 2)
	if len(h.injected) != 0 {
		t.Fatalf("partial block released early: %d injected", len(h.injected))
	}
	h.sched.RunUntil(sim.Time(24 * sim.Millisecond))
	if len(h.injected) != 0 {
		t.Fatalf("block released before hold expired")
	}
	h.sched.RunUntil(sim.Time(26 * sim.Millisecond))
	if len(h.injected) != 2 || sh.Pending() != 0 {
		t.Fatalf("hold flush released %d segments, %d pending", len(h.injected), sh.Pending())
	}
}

// TestShuffleRetireReleasesBuffered: segments stranded in a partial block
// at the run horizon are handed back to the arena — the countermeasure's
// entry in the leak-accounting contract.
func TestShuffleRetireReleasesBuffered(t *testing.T) {
	h := newFakeHost()
	sh := buildShuffler(t, h, 8, sim.Second, 1)
	uids := &packet.UIDSource{}
	for id := uint64(1); id <= 3; id++ {
		h.originate(t, uids, id)
	}
	sh.Retire()
	if sh.Pending() != 0 {
		t.Fatalf("%d segments still buffered after Retire", sh.Pending())
	}
	st := h.arena.Stats()
	if live := h.arena.LivePackets(); live != 0 {
		t.Fatalf("leak: %d live packets after Retire (acquired %d released %d)",
			live, st.PacketsAcquired, st.PacketsReleased)
	}
	if st.DoubleReleases != 0 {
		t.Fatalf("%d double releases", st.DoubleReleases)
	}
	// Retire is idempotent.
	sh.Retire()
	if st := h.arena.Stats(); st.DoubleReleases != 0 {
		t.Fatalf("second Retire double-released: %d", st.DoubleReleases)
	}
}

// TestFilterPassesNonData: ACKs, control packets and transit traffic must
// flow straight through to the routing protocol.
func TestFilterPassesNonData(t *testing.T) {
	h := newFakeHost()
	buildShuffler(t, h, 8, 25*sim.Millisecond, 1)
	uids := &packet.UIDSource{}
	cases := []packet.Packet{
		{UID: uids.Next(), Kind: packet.KindAck, Src: h.id, Dst: 2},                 // ACK
		{UID: uids.Next(), Kind: packet.KindRREQ, Src: h.id, Dst: 2},                // control
		{UID: uids.Next(), Kind: packet.KindData, Src: 9, Dst: 2, DataID: 7},        // transit
		{UID: uids.Next(), Kind: packet.KindData, Src: h.id, Dst: 2 /* DataID 0 */}, // no payload ID
	}
	for i := range cases {
		p := h.arena.NewPacketFrom(cases[i])
		if h.filter(p) {
			t.Fatalf("case %d (%s) was claimed by the shuffler", i, p.Kind)
		}
		h.arena.Release(p)
	}
}

func TestSpecValidateAndLabel(t *testing.T) {
	good := []Spec{
		{},
		{Model: ModelShuffle, Depth: 4, Hold: 10 * sim.Millisecond},
		{Model: ModelAware, Penalty: 0.3},
		{Model: ModelShuffleAware, Depth: 16, Penalty: 0.1},
		{Model: ModelTrust, Threshold: 1},
		{Model: ModelShuffle, Hold: maxHold},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	bad := []Spec{
		{Model: "jam"},                      // unknown model
		{Depth: 4},                          // knob on the zero model
		{Model: ModelAware, Depth: 4},       // shuffle knob on aware
		{Model: ModelShuffle, Penalty: 0.2}, // aware knob on shuffle
		{Model: ModelNone, Hold: sim.Second},
		// Out-of-range knobs the Effective* defaults would replace.
		{Model: ModelShuffle, Depth: -4},
		{Model: ModelShuffle, Hold: -sim.Millisecond},
		// A hold near the clock's range overflows the flush timer's
		// deadline.
		{Model: ModelShuffle, Hold: maxHold + 1},
		{Model: ModelAware, Penalty: -0.1},
		{Model: ModelTrust, Threshold: -0.2},
		{Model: ModelTrust, Threshold: 1.5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid spec", s)
		}
	}
	labels := map[string]Spec{
		"none":                 {},
		"shuffle×8":            {Model: ModelShuffle},
		"shuffle×4@10ms":       {Model: ModelShuffle, Depth: 4, Hold: 10 * sim.Millisecond},
		"aware":                {Model: ModelAware},
		"aware@p0.3":           {Model: ModelAware, Penalty: 0.3},
		"shuffle+aware×8@p0.1": {Model: ModelShuffleAware, Penalty: 0.1},
	}
	for want, s := range labels {
		if got := s.Label(); got != want {
			t.Errorf("Label(%+v) = %q, want %q", s, got, want)
		}
	}
}

// TestBuildModels: each model attaches only the parts it declares — no
// originate filter without shuffling, no trust table without trust — and
// shuffling refuses to attach without an RNG or sources.
func TestBuildModels(t *testing.T) {
	h := newFakeHost()
	aware := New(Spec{Model: ModelAware})
	if err := aware.AttachShufflers([]Host{h}, nil); err != nil {
		t.Fatal(err)
	}
	if aware.Model() != ModelAware {
		t.Fatalf("aware build reports model %q", aware.Model())
	}
	if h.filter != nil {
		t.Fatal("aware-only build installed an originate filter")
	}
	if aware.AttachTrust(h) != nil {
		t.Fatal("aware-only build attached a trust table")
	}
	if New(Spec{}).Model() != ModelNone {
		t.Fatal("zero spec does not report the undefended baseline")
	}
	if err := New(Spec{Model: ModelShuffle}).AttachShufflers([]Host{h}, nil); err == nil {
		t.Fatal("shuffle build without an RNG must fail")
	}
	if err := New(Spec{Model: ModelShuffle}).AttachShufflers(nil, sim.NewRNG(1)); err == nil {
		t.Fatal("shuffle build without sources must fail")
	}
	both := New(Spec{Model: ModelShuffleAware})
	if err := both.AttachShufflers([]Host{h}, sim.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if both.Model() != ModelShuffleAware || h.filter == nil {
		t.Fatalf("shuffle+aware build: model %q, filter installed: %v", both.Model(), h.filter != nil)
	}
	trust := New(Spec{Model: ModelTrust, Threshold: 0.5})
	tbl := trust.AttachTrust(h)
	if tbl == nil || tbl.threshold != 0.5 {
		t.Fatalf("trust build attached table %+v, want threshold 0.5", tbl)
	}
	if trust.Shuffled() != 0 || trust.Blocks() != 0 || trust.DistrustedLinks() != 0 {
		t.Fatal("fresh trust defence reports activity")
	}
}
