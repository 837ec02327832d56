// Package scenario assembles complete simulations from a declarative
// Config: the shared radio channel, mobile nodes with their MACs and
// routing protocols, TCP Reno flows with FTP sources, the eavesdropping
// node, and the metrics collector. The default configuration is the
// paper's §IV-A setup: 50 nodes, 1000 m × 1000 m, random waypoint with 1 s
// pause, IEEE 802.11b, 250 m range, one FTP/TCP flow, 200 s.
package scenario

import (
	"fmt"
	"math"

	"mtsim/internal/adversary"
	"mtsim/internal/app"
	"mtsim/internal/core"
	"mtsim/internal/countermeasure"
	"mtsim/internal/geo"
	"mtsim/internal/mac"
	"mtsim/internal/metrics"
	"mtsim/internal/mobility"
	"mtsim/internal/node"
	"mtsim/internal/packet"
	"mtsim/internal/phy"
	"mtsim/internal/routing/aodv"
	"mtsim/internal/routing/dsr"
	"mtsim/internal/routing/smr"
	"mtsim/internal/sim"
	"mtsim/internal/tcp"
)

// FlowSpec names one TCP connection.
type FlowSpec struct {
	Src, Dst packet.NodeID
}

// Config declares one simulation run. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	Protocol string // "DSR", "AODV" or "MTS"

	Nodes    int
	Field    geo.Rect
	RxRange  float64
	CSRange  float64
	MaxSpeed float64 // m/s
	MinSpeed float64
	Pause    sim.Duration

	Duration sim.Duration
	Seed     int64

	TCPStart sim.Time
	Flows    []FlowSpec // empty: one uniformly random distinct pair

	// Traffic selects the workload: "ftp" (default — TCP Reno with an
	// infinite backlog, the paper's workload) or "cbr" (fixed-rate
	// datagrams with no transport feedback, the workload of UDP-based
	// comparisons such as Broch et al., the paper's ref [2]).
	Traffic     string
	CBRInterval sim.Duration // default 50 ms (20 pkt/s)
	CBRSize     int          // payload bytes, default 512

	// Eavesdropper selects the eavesdropping node; RandomEavesdropper
	// picks a random node that is not a flow endpoint. It is the legacy
	// alias for the default Adversary (a single static eavesdropper) and
	// is ignored when Adversary selects a stronger model.
	Eavesdropper packet.NodeID

	// Adversary selects the threat model (internal/adversary): colluding
	// static taps, a roaming tap, blackhole/grayhole dropping relays, or a
	// wormhole or rushing route-discovery attack. The zero Spec is the
	// paper's single random eavesdropper, honouring Eavesdropper above.
	Adversary adversary.Spec

	// Countermeasure selects the defence (internal/countermeasure): data
	// shuffling at the traffic sources (with per-packet dispersal across
	// MTS's disjoint paths), adversary-aware MTS path selection, both, or
	// trust-scored path selection at every node. The zero Spec is the paper's undefended baseline and perturbs
	// nothing.
	Countermeasure countermeasure.Spec

	MAC  mac.Config
	TCP  tcp.Config
	MTS  core.Config
	AODV aodv.Config
	DSR  dsr.Config
	SMR  smr.Config

	// Placement, when non-nil, pins every node to a static position
	// (len(Placement) overrides Nodes) — used by integration tests and
	// examples with engineered topologies.
	Placement []geo.Point
}

// RandomEavesdropper asks for a random non-endpoint eavesdropper.
const RandomEavesdropper packet.NodeID = -1

// Protocols lists the paper's three protocols. The related-work protocols
// SMR (split multipath) and SMR-BACKUP (Lim's backup-path scheme) are also
// selectable in Config.Protocol for the extension experiments.
func Protocols() []string { return []string{"DSR", "AODV", "MTS"} }

// AllProtocols additionally includes the related-work baselines of §II.
func AllProtocols() []string { return []string{"DSR", "AODV", "MTS", "SMR", "SMR-BACKUP"} }

// DefaultConfig returns the paper's simulation parameters (§IV-A).
func DefaultConfig() Config {
	return Config{
		Protocol:     "MTS",
		Nodes:        50,
		Field:        geo.Field(1000, 1000),
		RxRange:      phy.DefaultRxRange,
		CSRange:      phy.DefaultCSRange,
		MaxSpeed:     10,
		MinSpeed:     0,
		Pause:        sim.Second,
		Duration:     200 * sim.Second,
		Seed:         1,
		TCPStart:     sim.Time(5 * sim.Second),
		Eavesdropper: RandomEavesdropper,
		MAC:          mac.Default80211b(),
		TCP:          tcp.DefaultConfig(),
		MTS:          core.DefaultConfig(),
		AODV:         aodv.DefaultConfig(),
		DSR:          dsr.DefaultConfig(),
		SMR:          smr.DefaultConfig(),
	}
}

// Scenario is a built simulation ready to run.
type Scenario struct {
	Cfg     Config
	Sched   *sim.Scheduler
	Channel *phy.Channel
	Nodes   []*node.Node
	Flows   []FlowSpec
	Senders []*tcp.Sender
	CBRs    []*app.CBR
	Sinks   []*tcp.Sink
	// Adversary is the attached threat model; for the paper's lone
	// eavesdropper, Adversary.Members()[0].Node is its host.
	Adversary *adversary.Adversary
	// Countermeasure is the attached defence (model "none" for the
	// undefended baseline).
	Countermeasure *countermeasure.Defence
	Collector      *metrics.Collector
	// Arena is the run-scoped packet/frame pool behind the whole data
	// plane. Tests flip Arena.Check for leak accounting or Arena.Pooling
	// off for the reference (no-recycling) mode before running.
	Arena *packet.Arena
}

// Retire hands every packet still owned by the stack at the run horizon —
// MAC interface queues and in-flight exchanges, pending jittered
// broadcasts, protocol send buffers — back to the arena. With Arena.Check
// on, a retired scenario must account for every packet and frame it ever
// allocated (Arena.LivePackets()==0): that closure is the leak-detecting
// harness. The scenario must not be advanced afterwards.
func (s *Scenario) Retire() {
	// Shuffle buffers hold claimed segments, and wormhole tunnels claimed
	// control packets, outside any node's custody; release them before
	// the nodes close their books.
	s.Countermeasure.Retire()
	s.Adversary.Retire()
	for _, nd := range s.Nodes {
		nd.Retire()
	}
}

// Context carries what consecutive runs on one goroutine can share: the
// recycled RNG sources (~5 KiB of math/rand state each, well over a
// hundred per scenario) and the cached per-index RNG derivation labels.
// Everything else — scheduler, channel, grid, collector, packet arena,
// nodes — is built fresh by every Build.
//
// Recycling changes allocation only, never behaviour: a scenario built on
// a used Context is bit-for-bit identical to one built on a new one (the
// golden-metric fixtures are verified both ways). A Context serves one run
// at a time — building the next scenario re-seeds the previous one's RNG
// sources, so keep only the returned RunMetrics (which are standalone
// copies). Not safe for concurrent use; give each worker goroutine its own
// Context.
type Context struct {
	rngs sim.RNGRecycler

	// Cached per-index RNG derivation labels: the strings are pure
	// functions of the index, so re-running a context re-derives the same
	// streams from the same cached bytes instead of re-Sprintf-ing them.
	placeLabels *sim.LabelCache
	mobLabels   *sim.LabelCache
	nodeLabels  *sim.LabelCache
}

// NewContext returns an empty context; the first Build populates it.
func NewContext() *Context { return &Context{} }

// Build wires a scenario from the configuration, drawing its RNG streams
// from the context's recycler. The previous scenario built from this
// context becomes invalid.
func (ctx *Context) Build(cfg Config) (*Scenario, error) {
	n := cfg.Nodes
	if cfg.Placement != nil {
		n = len(cfg.Placement)
	}
	if n < 2 {
		return nil, fmt.Errorf("scenario: need at least 2 nodes, have %d", n)
	}
	switch cfg.Protocol {
	case "DSR", "AODV", "MTS", "SMR", "SMR-BACKUP":
	default:
		return nil, fmt.Errorf("scenario: unknown protocol %q", cfg.Protocol)
	}

	// The countermeasure's aware/dispersal halves are MTS path-selection
	// policy, so they ride in through the router configuration; the
	// shuffling half attaches to the source nodes after flows are known.
	// Both specs are validated before any node is built, so a mistyped
	// knob fails fast.
	cmSpec := cfg.Countermeasure
	if err := cmSpec.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := cfg.Adversary.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	mtsCfg := cfg.MTS
	if cmSpec.Shuffles() {
		mtsCfg.Disperse = true
	}
	if cmSpec.Aware() {
		mtsCfg.AwarePenalty = cmSpec.EffectivePenalty()
	}
	sched := sim.NewScheduler()
	s := &Scenario{
		Cfg:            cfg,
		Sched:          sched,
		Channel:        phy.NewChannel(sched, cfg.RxRange, cfg.CSRange),
		Nodes:          make([]*node.Node, 0, n),
		Countermeasure: countermeasure.New(cmSpec),
		Collector:      metrics.NewCollector(),
		Arena:          packet.NewArena(),
	}
	s.Arena.SetClock(sched.Now)
	// Receiver lookup is grid-indexed; size the index to the mobility field
	// (grown to cover any pinned placements outside it) before radios attach.
	bounds := cfg.Field
	for _, p := range cfg.Placement {
		bounds.MinX = math.Min(bounds.MinX, p.X)
		bounds.MinY = math.Min(bounds.MinY, p.Y)
		bounds.MaxX = math.Max(bounds.MaxX, p.X)
		bounds.MaxY = math.Max(bounds.MaxY, p.Y)
	}
	s.Channel.EnableGrid(bounds, 0)
	// The previous run is dead by contract, so its RNG sources re-seed for
	// this one; derived streams recycle too.
	ctx.rngs.Recycle()
	master := ctx.rngs.New(cfg.Seed)
	uids := &packet.UIDSource{}

	// Per-index derivation labels ("<prefix>/<i>"), cached across runs.
	if ctx.placeLabels == nil {
		ctx.placeLabels = sim.NewLabelCache("place")
		ctx.mobLabels = sim.NewLabelCache("mobility")
		ctx.nodeLabels = sim.NewLabelCache("node")
	}
	placeL, mobL, nodeL := ctx.placeLabels, ctx.mobLabels, ctx.nodeLabels

	for i := 0; i < n; i++ {
		id := packet.NodeID(i)
		var mob mobility.Model
		if cfg.Placement != nil {
			mob = &mobility.Static{P: cfg.Placement[i]}
		} else if cfg.MaxSpeed <= 0 {
			// Static but randomly placed.
			rng := master.Derive(placeL.Label(i))
			mob = &mobility.Static{P: geo.Point{
				X: rng.Uniform(cfg.Field.MinX, cfg.Field.MaxX),
				Y: rng.Uniform(cfg.Field.MinY, cfg.Field.MaxY),
			}}
		} else {
			mob = mobility.NewRandomWaypoint(cfg.Field, cfg.MinSpeed, cfg.MaxSpeed,
				cfg.Pause, master.Derive(mobL.Label(i)))
		}
		nd := node.New(id, s.Sched, s.Channel, cfg.MAC, mob,
			master.Derive(nodeL.Label(i)), uids)
		nd.SetArena(s.Arena)
		// The trust defence scores every node's neighbours. Before
		// SetProtocol: routers capture the node's trust oracle at New time.
		// It draws no RNG, so legacy streams are untouched.
		s.Countermeasure.AttachTrust(nd)

		switch cfg.Protocol {
		case "DSR":
			nd.SetProtocol(dsr.New(nd, cfg.DSR))
		case "AODV":
			nd.SetProtocol(aodv.New(nd, cfg.AODV))
		case "MTS":
			nd.SetProtocol(core.New(nd, mtsCfg))
		case "SMR":
			sc := cfg.SMR
			sc.Mode = smr.ModeSplit
			nd.SetProtocol(smr.New(nd, sc))
		case "SMR-BACKUP":
			sc := cfg.SMR
			sc.Mode = smr.ModeBackup
			nd.SetProtocol(smr.New(nd, sc))
		}

		// The metrics collector observes every node.
		nd.AddStage(node.Stage{
			Relayed: func(*packet.Packet) { s.Collector.Relay(id) },
			Dropped: func(_ *packet.Packet, reason string) { s.Collector.Drop(reason) },
			Aired: func(f *packet.Frame) {
				if f.Kind != packet.FrameData || f.Payload == nil {
					return
				}
				if f.Payload.Kind.IsControl() {
					s.Collector.ControlSend()
				} else {
					s.Collector.DataSend()
				}
			},
		})
		s.Nodes = append(s.Nodes, nd)
	}

	// Flows.
	flows := cfg.Flows
	if len(flows) == 0 {
		rng := master.Derive("traffic")
		src := packet.NodeID(rng.Intn(n))
		dst := packet.NodeID(rng.Intn(n - 1))
		if dst >= src {
			dst++
		}
		flows = []FlowSpec{{Src: src, Dst: dst}}
	}
	for i, f := range flows {
		if f.Src == f.Dst || int(f.Src) >= n || int(f.Dst) >= n || f.Src < 0 || f.Dst < 0 {
			return nil, fmt.Errorf("scenario: bad flow %d: %d -> %d", i, f.Src, f.Dst)
		}
		switch cfg.Traffic {
		case "", "ftp":
			sender := tcp.NewSender(s.Nodes[f.Src], cfg.TCP, i, f.Dst)
			sink := tcp.NewSink(s.Nodes[f.Dst], i)
			app.NewFTP(sender, cfg.TCPStart).Install(s.Sched)
			s.Senders = append(s.Senders, sender)
			s.Sinks = append(s.Sinks, sink)
		case "cbr":
			interval := cfg.CBRInterval
			if interval <= 0 {
				interval = 50 * sim.Millisecond
			}
			size := cfg.CBRSize
			if size <= 0 {
				size = 512
			}
			src := app.NewCBR(s.Nodes[f.Src], i, f.Dst, size, interval,
				cfg.TCPStart, sim.Time(cfg.Duration))
			src.Install(s.Sched)
			sink := tcp.NewSink(s.Nodes[f.Dst], i)
			sink.Mute = true
			s.CBRs = append(s.CBRs, src)
			s.Sinks = append(s.Sinks, sink)
		default:
			return nil, fmt.Errorf("scenario: unknown traffic type %q", cfg.Traffic)
		}
	}
	s.Flows = flows

	// Adversary. Non-endpoint nodes are the candidate hosts for random
	// placement (an eavesdropper at a flow endpoint would trivially see
	// everything).
	candidates := func() []packet.NodeID {
		endpoints := map[packet.NodeID]bool{}
		for _, f := range flows {
			endpoints[f.Src] = true
			endpoints[f.Dst] = true
		}
		var out []packet.NodeID
		for i := 0; i < n; i++ {
			if !endpoints[packet.NodeID(i)] {
				out = append(out, packet.NodeID(i))
			}
		}
		return out
	}

	spec := cfg.Adversary
	// Only the genuinely all-default single eavesdropper takes the legacy
	// route (Validate has already rejected knobs it would ignore).
	legacy := spec.IsZero() ||
		(spec.Model == adversary.ModelEavesdropper && len(spec.Nodes) == 0 && spec.K <= 1)
	var hosts []*node.Node
	var advRNG *sim.RNG
	if legacy {
		// The paper's single eavesdropper, honouring Config.Eavesdropper.
		// This path reproduces the pre-adversary RNG consumption exactly
		// (one "eaves" derivation and one draw, only when random), so
		// legacy scenarios stay bit-identical.
		ev := cfg.Eavesdropper
		if ev == RandomEavesdropper {
			rng := master.Derive("eaves")
			cand := candidates()
			if len(cand) == 0 {
				return nil, fmt.Errorf("scenario: no candidate eavesdropper among %d nodes", n)
			}
			ev = cand[rng.Intn(len(cand))]
		}
		if int(ev) >= n || ev < 0 {
			return nil, fmt.Errorf("scenario: eavesdropper %d out of range", ev)
		}
		spec.Model = adversary.ModelEavesdropper
		hosts = []*node.Node{s.Nodes[ev]}
	} else {
		spec.Model = spec.EffectiveModel()
		advRNG = master.Derive("eaves")
		if len(spec.Nodes) > 0 {
			seen := map[packet.NodeID]bool{}
			for _, id := range spec.Nodes {
				if int(id) >= n || id < 0 {
					return nil, fmt.Errorf("scenario: adversary node %d out of range", id)
				}
				if seen[id] {
					return nil, fmt.Errorf("scenario: duplicate adversary node %d", id)
				}
				seen[id] = true
				hosts = append(hosts, s.Nodes[id])
			}
		} else {
			k := spec.EffectiveK()
			pool := candidates()
			if k > len(pool) {
				return nil, fmt.Errorf("scenario: adversary wants %d nodes, only %d non-endpoints", k, len(pool))
			}
			for i := 0; i < k; i++ {
				j := advRNG.Intn(len(pool))
				hosts = append(hosts, s.Nodes[pool[j]])
				pool[j] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
			}
		}
	}
	adv, err := adversary.Build(spec, hosts, advRNG)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s.Adversary = adv

	// Shufflers attach to the distinct flow sources in flow order. Only a
	// shuffling defence derives an RNG stream, keeping other runs
	// bit-identical.
	if cmSpec.Shuffles() {
		seenSrc := map[packet.NodeID]bool{}
		var cmHosts []countermeasure.Host
		for _, f := range flows {
			if !seenSrc[f.Src] {
				seenSrc[f.Src] = true
				cmHosts = append(cmHosts, s.Nodes[f.Src])
			}
		}
		if err := s.Countermeasure.AttachShufflers(cmHosts, master.Derive("countermeasure")); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}

	for _, nd := range s.Nodes {
		nd.Start()
	}
	return s, nil
}

// Run executes the simulation to its horizon and computes the metrics.
func (s *Scenario) Run() *metrics.RunMetrics {
	s.Sched.RunUntil(sim.Time(s.Cfg.Duration))
	return s.Gather()
}

// Gather computes the RunMetrics from the current state (callable mid-run
// for time series).
func (s *Scenario) Gather() *metrics.RunMetrics {
	members := s.Adversary.Members()
	m := &metrics.RunMetrics{
		Protocol:       s.Cfg.Protocol,
		MaxSpeed:       s.Cfg.MaxSpeed,
		Seed:           s.Cfg.Seed,
		Duration:       s.Cfg.Duration,
		EavesdropperID: members[0].Node,
		AdversaryModel: s.Adversary.Model(),
		AdversaryK:     len(members),
		Extra:          map[string]uint64{},
	}
	for _, mem := range members {
		m.AdversaryMembers = append(m.AdversaryMembers, metrics.AdversaryMember{
			Node: mem.Node, Frames: mem.Frames, Distinct: mem.Distinct,
		})
	}

	var distinct, arrivals, segments, retx, timeouts uint64
	var totalDelay sim.Duration
	for i := range s.Sinks {
		distinct += s.Sinks[i].Stats.Distinct
		arrivals += s.Sinks[i].Stats.Arrivals
		totalDelay += s.Sinks[i].Stats.TotalDelay
	}
	for i := range s.Senders {
		segments += s.Senders[i].Stats.Segments
		retx += s.Senders[i].Stats.Retransmits
		timeouts += s.Senders[i].Stats.Timeouts
	}
	for i := range s.CBRs {
		segments += s.CBRs[i].Sent
	}
	m.Distinct = distinct
	m.Arrivals = arrivals
	m.SegmentsSent = segments
	m.Retransmits = retx
	m.Timeouts = timeouts

	m.Participating = s.Collector.Participating()
	m.RelayRows, m.Alpha, m.RelayStdDev = s.Collector.RelayTable()
	if arrivals > 0 {
		m.HighestInterception = float64(s.Collector.MaxBeta()) / float64(arrivals)
	}
	m.InterceptionRatio = s.Adversary.Ratio(distinct)
	m.CoalitionDistinct = s.Adversary.Distinct()
	m.CoalitionFrames = s.Adversary.Frames()
	m.AdversaryDropped = s.Adversary.Dropped()
	m.AdversaryAttracted = s.Adversary.Attracted()

	payload := s.Cfg.TCP.MSS
	if s.Cfg.Traffic == "cbr" {
		if payload = s.Cfg.CBRSize; payload <= 0 {
			payload = 512
		}
	}
	m.CountermeasureModel = s.Countermeasure.Model()
	m.ShuffledSegments = s.Countermeasure.Shuffled()
	m.ShuffleBlocks = s.Countermeasure.Blocks()
	cs := s.Adversary.Contiguity()
	m.InterceptedLongestRun = cs.LongestRun
	m.InterceptedContigPkts = cs.RunPkts
	m.InterceptedContigBytes = cs.RunPkts * uint64(payload)
	m.InterceptedStreamRun = cs.StreamRun
	m.InterceptedStreamPkts = cs.StreamPkts
	m.InterceptedStreamBytes = cs.StreamPkts * uint64(payload)
	if m.CoalitionDistinct > 0 {
		m.InterceptedContigRatio = float64(cs.RunPkts) / float64(m.CoalitionDistinct)
		m.InterceptedStreamRatio = float64(cs.StreamPkts) / float64(m.CoalitionDistinct)
	}

	if distinct > 0 {
		m.AvgDelaySec = totalDelay.Seconds() / float64(distinct)
	}
	active := s.Cfg.Duration - sim.Duration(s.Cfg.TCPStart)
	if active > 0 {
		m.ThroughputPps = float64(distinct) / active.Seconds()
		m.ThroughputKbps = m.ThroughputPps * float64(payload) * 8 / 1000
	}
	if segments > 0 {
		m.DeliveryRate = float64(arrivals) / float64(segments)
	}
	m.ControlPkts = s.Collector.ControlTx()
	m.EventsRun = s.Sched.Executed

	// Protocol-specific diagnostics from the flow endpoints.
	for _, f := range s.Flows {
		switch p := s.Nodes[f.Src].Proto.(type) {
		case *core.Router:
			m.Extra["discoveries"] += p.Stats.Discoveries
			m.Extra["switches"] += p.Stats.Switches
			m.Extra["awareOverrides"] += p.Stats.AwareOverrides
		case *aodv.Router:
			m.Extra["discoveries"] += p.Discoveries
		case *dsr.Router:
			m.Extra["discoveries"] += p.Discoveries
			m.Extra["salvages"] += p.Salvages
		case *smr.Router:
			m.Extra["discoveries"] += p.Discoveries
			m.Extra["splitToggles"] += p.SplitToggles
		}
		if p, ok := s.Nodes[f.Dst].Proto.(*core.Router); ok {
			m.Extra["checks"] += p.Stats.ChecksSent
			m.Extra["pathsStored"] += p.Stats.PathsStored
		}
	}
	if s.Cfg.Countermeasure.Trusts() {
		m.Extra["trustForwards"] = s.Countermeasure.Forwards()
		m.Extra["trustDrops"] = s.Countermeasure.Drops()
		m.Extra["trustDistrusted"] = s.Countermeasure.DistrustedLinks()
	}
	return m
}

// RunOne builds and runs one configuration on the context.
func (ctx *Context) RunOne(cfg Config) (*metrics.RunMetrics, error) {
	s, err := ctx.Build(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// Build wires a scenario from the configuration on a new Context.
func Build(cfg Config) (*Scenario, error) { return NewContext().Build(cfg) }

// RunOne is the convenience path: build and run a single configuration.
func RunOne(cfg Config) (*metrics.RunMetrics, error) {
	s, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// Sample is one point of a metric time series ("throughput over the
// simulation time", the view behind the paper's Fig. 9 caption).
type Sample struct {
	At sim.Time
	// DistinctDelta is the number of new distinct data packets delivered
	// in the interval ending at At.
	DistinctDelta uint64
	// ThroughputPps is the delivery rate over that interval.
	ThroughputPps float64
	// CumulativeDistinct is the running total.
	CumulativeDistinct uint64
}

// RunSampled executes the simulation, recording a throughput sample every
// interval, and returns the series along with the final metrics.
func (s *Scenario) RunSampled(interval sim.Duration) ([]Sample, *metrics.RunMetrics) {
	if interval <= 0 {
		interval = 10 * sim.Second
	}
	var series []Sample
	var prev uint64
	for t := sim.Time(interval); t <= sim.Time(s.Cfg.Duration); t = t.Add(interval) {
		s.Sched.RunUntil(t)
		var distinct uint64
		for i := range s.Sinks {
			distinct += s.Sinks[i].Stats.Distinct
		}
		series = append(series, Sample{
			At:                 t,
			DistinctDelta:      distinct - prev,
			ThroughputPps:      float64(distinct-prev) / interval.Seconds(),
			CumulativeDistinct: distinct,
		})
		prev = distinct
	}
	s.Sched.RunUntil(sim.Time(s.Cfg.Duration))
	return series, s.Gather()
}
