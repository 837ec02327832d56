package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/metrics"
	"mtsim/internal/sim"
	"mtsim/internal/trace"
)

// Regenerate the fixtures after an intentional behaviour change with:
//
//	go test ./internal/scenario -run TestGoldenMetrics -update
//
// and commit the diff — it is the reviewable record of what the change did
// to every metric.
var updateGolden = flag.Bool("update", false, "rewrite golden metric fixtures")

// goldenFile pins the architecture the fixture was generated on: Go forbids
// nothing about FMA contraction differing across GOARCH, so float metrics
// are only guaranteed bit-identical on the same architecture.
type goldenFile struct {
	GOARCH  string              `json:"goarch"`
	Metrics *metrics.RunMetrics `json:"metrics"`
}

func goldenConfig(proto string) Config {
	cfg := DefaultConfig()
	cfg.Protocol = proto
	cfg.MaxSpeed = 10
	cfg.Duration = 12 * sim.Second
	cfg.TCPStart = sim.Time(2 * sim.Second)
	// Seed 5 routes the flow over multiple hops for every protocol, so the
	// fixtures lock non-trivial relay tables and interception ratios, not
	// just a direct-neighbour transfer.
	cfg.Seed = 5
	return cfg
}

// goldenCase names one locked fixture: the five plain protocol runs plus
// the defender-vs-attacker MTS trio (coalition baseline, shuffle, aware),
// whose committed numbers are the review artefact for the countermeasure
// subsystem — the shuffle fixture's InterceptedContigBytes against the
// coalition baseline's is the paper-claim evidence.
type goldenCase struct {
	name string
	cfg  Config
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, proto := range AllProtocols() {
		cases = append(cases, goldenCase{strings.ToLower(proto), goldenConfig(proto)})
	}
	coalition := func() Config {
		cfg := goldenConfig("MTS")
		cfg.Adversary = adversary.Spec{Model: adversary.ModelCoalition, K: 2}
		return cfg
	}
	base := coalition()
	shuffle := coalition()
	shuffle.Countermeasure = countermeasure.Spec{Model: countermeasure.ModelShuffle}
	aware := coalition()
	aware.Countermeasure = countermeasure.Spec{Model: countermeasure.ModelAware}
	// Dispersal and the aware penalty together turn MTS's per-packet
	// round-robin into the usage-balanced rotation, which no other
	// fixture reaches. At seed 5 the two rotations carry the same
	// packets; seed 6 churns the usable set, so they differ.
	shuffleAware := coalition()
	shuffleAware.Seed = 6
	shuffleAware.Countermeasure = countermeasure.Spec{Model: countermeasure.ModelShuffleAware}
	// The attacker–defender matchups of the co-evolution loop: trust
	// against the route-discovery attacks it was built for, shuffle
	// against the tap that re-positions toward observed traffic.
	trustWormhole := goldenConfig("DSR")
	trustWormhole.Adversary = adversary.Spec{Model: adversary.ModelWormhole}
	trustWormhole.Countermeasure = countermeasure.Spec{Model: countermeasure.ModelTrust}
	trustRushing := goldenConfig("AODV")
	trustRushing.Adversary = adversary.Spec{Model: adversary.ModelRushing, K: 2}
	trustRushing.Countermeasure = countermeasure.Spec{Model: countermeasure.ModelTrust}
	shuffleAdaptive := goldenConfig("MTS")
	shuffleAdaptive.Adversary = adversary.Spec{Model: adversary.ModelAdaptive, Interval: 2 * sim.Second}
	shuffleAdaptive.Countermeasure = countermeasure.Spec{Model: countermeasure.ModelShuffle}
	// The models no other fixture reaches: the touring tap and the two
	// dropping relays. AODV is avoided for the droppers because at this
	// seed its routes never cross them, so it would pin zero drops.
	mobile := goldenConfig("MTS")
	mobile.Adversary = adversary.Spec{Model: adversary.ModelMobile, K: 3, Interval: 2 * sim.Second}
	blackhole := goldenConfig("DSR")
	blackhole.Adversary = adversary.Spec{Model: adversary.ModelBlackhole, K: 3}
	grayhole := goldenConfig("MTS")
	grayhole.Adversary = adversary.Spec{Model: adversary.ModelGrayhole, K: 3}
	// A dropper on a trust-defended run: the only fixture where a node
	// both drops data and keeps a trust table, so it pins that a dropped
	// packet never opens a watchdog obligation (the drop verdict runs
	// before trust observes the send; the other way round moves
	// trustDrops).
	grayholeTrust := grayhole
	grayholeTrust.Countermeasure = countermeasure.Spec{Model: countermeasure.ModelTrust}
	// At twice the speed AODV's one in-place repair hash-picks between
	// two surviving equal-cost next hops; the plain aodv run repairs with
	// a single survivor, so only this fixture pins the pick itself.
	fast := goldenConfig("AODV")
	fast.MaxSpeed = 20
	fast.Seed = 4
	// The literal §III-E rule: with no grace margin a round's first
	// arrival takes over at once. Seed 5 never switches; at seed 6 the
	// margin changes the run.
	margin0 := goldenConfig("MTS")
	margin0.Seed = 6
	margin0.MTS.SwitchMargin = 0
	return append(cases,
		goldenCase{"mts-coalition", base},
		goldenCase{"mts-coalition-shuffle", shuffle},
		goldenCase{"mts-coalition-aware", aware},
		goldenCase{"mts-coalition-shuffle-aware", shuffleAware},
		goldenCase{"dsr-wormhole-trust", trustWormhole},
		goldenCase{"aodv-rushing-trust", trustRushing},
		goldenCase{"mts-adaptive-shuffle", shuffleAdaptive},
		goldenCase{"mts-mobile", mobile},
		goldenCase{"dsr-blackhole", blackhole},
		goldenCase{"mts-grayhole", grayhole},
		goldenCase{"mts-grayhole-trust", grayholeTrust},
		goldenCase{"aodv-fast", fast},
		goldenCase{"mts-margin0", margin0},
	)
}

// TestGoldenMetrics locks the complete RunMetrics of one fixed-seed run per
// protocol to committed JSON fixtures. Where TestSameSeedSameMetrics only
// proves a binary agrees with itself, this fails with a readable field/line
// diff when any commit changes any metric of a legacy scenario — the
// regression harness behind the adversary refactor's bit-compatibility
// guarantee.
func TestGoldenMetrics(t *testing.T) {
	// One shared context across all protocols: the fixtures must hold
	// through the sweep engine's per-worker context reuse, not just
	// through fresh builds (RunOne is checked against the context path in
	// context_test.go).
	ctx := NewContext()
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ctx.Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Every golden run doubles as a packet-arena leak check: the
			// fixtures prove pooling changed no metric, and the retired
			// arena's ledger proves no call site leaked or double-freed.
			s.Arena.Check = true
			m := s.Run()
			s.Retire()
			assertArenaClean(t, s.Arena)
			got := goldenJSON(t, m)
			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *updateGolden {
				writeGolden(t, path, got)
				return
			}
			compareGolden(t, path, got)
		})
	}
}

// goldenTraceCase is the golden case whose packet trace is pinned by
// digest. The digest pins the order and content of the frames each node
// aired and heard with the tracer attached. Only the tracer writes lines,
// so the other stages on a node (DSR snooping, the trust watchdog, the
// wormhole endpoint) move the digest only by changing what is aired;
// their effect on behaviour is pinned by the golden metrics.
const goldenTraceCase = "dsr-wormhole-trust"

// TestGoldenMetricsTraced reruns every golden case with the packet tracer
// attached to every node. Observers must change nothing: the metrics stay
// byte-identical to the fixtures, and the trace of goldenTraceCase hashes
// to the committed digest (its line order is the order in which frames
// aired and were heard).
func TestGoldenMetricsTraced(t *testing.T) {
	ctx := NewContext()
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ctx.Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			tr := trace.New(h, s.Sched)
			for _, n := range s.Nodes {
				tr.AttachNode(n)
			}
			m := s.Run()
			s.Retire()
			if tr.Lines == 0 {
				t.Fatal("tracer recorded nothing")
			}
			if !*updateGolden {
				compareGolden(t, filepath.Join("testdata", "golden", tc.name+".json"), goldenJSON(t, m))
			}
			if tc.name != goldenTraceCase {
				return
			}
			got := []byte(fmt.Sprintf("%x %d\n", h.Sum(nil), tr.Lines))
			path := filepath.Join("testdata", "golden", tc.name+".trace.sha256")
			if *updateGolden {
				writeGolden(t, path, got)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing trace digest %s (generate with -update): %v", path, err)
			}
			if string(want) != string(got) {
				t.Errorf("trace digest (sha256, lines) diverged from %s:\n  -%s  +%s", path, want, got)
			}
		})
	}
}

// goldenJSON renders a run's metrics as a fixture file.
func goldenJSON(t *testing.T, m *metrics.RunMetrics) []byte {
	t.Helper()
	got, err := json.MarshalIndent(goldenFile{GOARCH: runtime.GOARCH, Metrics: m}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(got, '\n')
}

func writeGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, got, 0o644); err != nil {
		t.Fatal(err)
	}
}

// compareGolden fails t when got differs from the fixture at path, and
// skips it when the fixture was generated on another architecture.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (generate with -update): %v", path, err)
	}
	var wantFile goldenFile
	if err := json.Unmarshal(want, &wantFile); err != nil {
		t.Fatalf("corrupt fixture %s: %v", path, err)
	}
	if wantFile.GOARCH != runtime.GOARCH {
		t.Skipf("fixture generated on %s, running on %s: float metrics are only bit-stable per architecture",
			wantFile.GOARCH, runtime.GOARCH)
	}
	if diff := diffLines(string(want), string(got)); diff != "" {
		t.Errorf("metrics diverged from %s (regenerate with -update if intended):\n%s",
			path, diff)
	}
}

// diffLines returns a unified-style listing of the lines that differ
// between two texts, or "" when they are identical.
func diffLines(want, got string) string {
	if want == got {
		return ""
	}
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if shown == 20 {
			b.WriteString("  ... (more differences elided)\n")
			break
		}
		fmt.Fprintf(&b, "  line %d:\n    -%s\n    +%s\n", i+1, wl, gl)
		shown++
	}
	return b.String()
}
