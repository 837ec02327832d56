package bench

import (
	"sync"
	"time"

	"mtsim/internal/experiment"
	"mtsim/internal/metrics"
	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/runcache"
	"mtsim/internal/scenario"
	"mtsim/internal/sim"
)

// tracer records spans and counts at the engine's public seams. The sweep
// calls its runner and cache from several workers; each call builds its
// record locally and appends it under the lock once, so the hot path of
// a run never touches shared state.
type tracer struct {
	mu           sync.Mutex
	cells        []cellTrace
	gets, puts   []time.Duration
	hits, misses int
	// renders is written by the replay loop alone.
	renders []time.Duration
}

// cellTrace is one traced cell: the span of each call DefaultRunner
// makes, the routing calls, and the layer counters read at the horizon.
type cellTrace struct {
	build, run, gather, retire, total time.Duration
	proto                             protoStats
	m                                 *metrics.RunMetrics

	events, frames, decoded, collided uint64
	macSent                           [4]uint64 // by packet.FrameKind
	retries, queueDrops, linkFailures uint64
}

// run does what experiment.DefaultRunner does under a zero Watchdog, one
// timed call at a time. Between Build and the run it swaps a counting
// decorator into every node's routing slot; the concrete routers go back
// before Gather and Retire, which type-assert them.
func (t *tracer) run(ctx *scenario.Context, cfg scenario.Config, _ experiment.Watchdog) (*metrics.RunMetrics, error) {
	var c cellTrace
	t0 := time.Now()
	s, err := ctx.Build(cfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	orig := make([]routing.Protocol, len(s.Nodes))
	for i, nd := range s.Nodes {
		orig[i] = nd.Proto
		nd.Proto = &tracedProto{Protocol: nd.Proto, st: &c.proto}
	}
	t2 := time.Now()
	s.Sched.RunUntil(sim.Time(s.Cfg.Duration))
	t3 := time.Now()
	for i, nd := range s.Nodes {
		nd.Proto = orig[i]
	}
	c.count(s)
	t4 := time.Now()
	c.m = s.Gather()
	t5 := time.Now()
	s.Retire()
	t6 := time.Now()
	c.build, c.run, c.gather, c.retire = t1.Sub(t0), t3.Sub(t2), t5.Sub(t4), t6.Sub(t5)
	c.total = c.build + c.run + c.gather + c.retire
	t.mu.Lock()
	t.cells = append(t.cells, c)
	t.mu.Unlock()
	return c.m, nil
}

// count reads the per-layer counters a finished scenario exposes.
func (c *cellTrace) count(s *scenario.Scenario) {
	c.events = s.Sched.Executed
	for _, r := range s.Channel.Radios() {
		c.frames += r.FramesSent
		c.decoded += r.FramesDecoded
		c.collided += r.FramesCollided
	}
	for _, nd := range s.Nodes {
		st := &nd.Mac.Stats
		for k := range c.macSent {
			c.macSent[k] += st.FramesSent[k]
		}
		c.retries += st.Retries
		c.queueDrops += st.QueueDrops
		c.linkFailures += st.LinkFailures
	}
}

// protoStats counts one run's routing calls and the time spent inside
// them. A run is single-threaded, so it needs no lock; depth keeps a
// call nested in another (a Receive that originates a Send) from being
// timed twice.
type protoStats struct {
	send, receive, linkFailed uint64
	depth                     int
	start                     time.Time
	incl                      time.Duration
}

func (s *protoStats) enter() {
	if s.depth == 0 {
		s.start = time.Now()
	}
	s.depth++
}

func (s *protoStats) leave() {
	s.depth--
	if s.depth == 0 {
		s.incl += time.Since(s.start)
	}
}

// tracedProto decorates a node's routing protocol with call counts.
type tracedProto struct {
	routing.Protocol
	st *protoStats
}

func (p *tracedProto) Send(pk *packet.Packet) {
	p.st.send++
	p.st.enter()
	p.Protocol.Send(pk)
	p.st.leave()
}

func (p *tracedProto) Receive(pk *packet.Packet, from packet.NodeID) {
	p.st.receive++
	p.st.enter()
	p.Protocol.Receive(pk, from)
	p.st.leave()
}

func (p *tracedProto) LinkFailed(pk *packet.Packet, next packet.NodeID) {
	p.st.linkFailed++
	p.st.enter()
	p.Protocol.LinkFailed(pk, next)
	p.st.leave()
}

// timedCache times the sweep's calls into the run cache.
type timedCache struct {
	t     *tracer
	inner *runcache.Store
}

func (t *tracer) cache(s *runcache.Store) experiment.Cache { return timedCache{t, s} }

func (c timedCache) Get(cfg scenario.Config) (*metrics.RunMetrics, bool) {
	t0 := time.Now()
	m, ok := c.inner.Get(cfg)
	d := time.Since(t0)
	c.t.mu.Lock()
	c.t.gets = append(c.t.gets, d)
	if ok {
		c.t.hits++
	} else {
		c.t.misses++
	}
	c.t.mu.Unlock()
	return m, ok
}

func (c timedCache) Put(cfg scenario.Config, m *metrics.RunMetrics) error {
	t0 := time.Now()
	err := c.inner.Put(cfg, m)
	d := time.Since(t0)
	c.t.mu.Lock()
	c.t.puts = append(c.t.puts, d)
	c.t.mu.Unlock()
	return err
}

// fill computes the per-layer metrics from the traced repetitions, the
// untraced reference repetition and the CPU profile of the traced ones.
// They are host times: ratios within one run need no calibration.
func (t *tracer) fill(vals map[string]Value, base repStats, traced []repStats, p *profileSummary) {
	set := func(name string, v float64) { vals[name] = Value{Value: v} }
	setP50 := func(name string, xs []float64) { vals[name] = Value{Value: median(xs), N: len(xs)} }

	ops, tracedWall := 0, []float64{}
	var sweeps []time.Duration
	for _, s := range traced {
		ops += s.ops
		tracedWall = append(tracedWall, s.wall.Seconds())
		sweeps = append(sweeps, s.sweep...)
	}
	var build, run, gather, retire []time.Duration
	var sum cellTrace
	var incl time.Duration
	var control, discoveries, switches, checks, salvages, segments, retx, timeouts,
		distinct, dropped, attracted, eavesFrames, trustDrops, shuffled uint64
	for _, c := range t.cells {
		build, run = append(build, c.build), append(run, c.run)
		gather, retire = append(gather, c.gather), append(retire, c.retire)
		sum.proto.send += c.proto.send
		sum.proto.receive += c.proto.receive
		sum.proto.linkFailed += c.proto.linkFailed
		incl += c.proto.incl
		sum.events += c.events
		sum.frames += c.frames
		sum.decoded += c.decoded
		sum.collided += c.collided
		for k := range sum.macSent {
			sum.macSent[k] += c.macSent[k]
		}
		sum.retries += c.retries
		sum.queueDrops += c.queueDrops
		sum.linkFailures += c.linkFailures
		m := c.m
		control += m.ControlPkts
		discoveries += m.Extra["discoveries"]
		switches += m.Extra["switches"]
		checks += m.Extra["checks"]
		salvages += m.Extra["salvages"]
		trustDrops += m.Extra["trustDrops"]
		segments += m.SegmentsSent
		retx += m.Retransmits
		timeouts += m.Timeouts
		distinct += m.Distinct
		dropped += m.AdversaryDropped
		attracted += m.AdversaryAttracted
		eavesFrames += m.CoalitionFrames
		shuffled += m.ShuffledSegments
	}
	per := func(x uint64) float64 { return perOp(float64(x), ops) }
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	setP50("scenario.build_ms_p50", durationsMS(build))
	setP50("sim.run_ms_p50", durationsMS(run))
	setP50("metrics.gather_ms_p50", durationsMS(gather))
	setP50("scenario.retire_ms_p50", durationsMS(retire))
	gets := durationsUS(t.gets)
	vals["runcache.get_us_p50"] = Value{Value: quantile(gets, 0.5), N: len(gets)}
	vals["runcache.get_us_p90"] = Value{Value: quantile(gets, 0.9), N: len(gets)}
	setP50("runcache.put_us_p50", durationsUS(t.puts))
	set("routing.send_calls_per_op", per(sum.proto.send))
	set("routing.receive_calls_per_op", per(sum.proto.receive))
	set("routing.linkfailed_calls_per_op", per(sum.proto.linkFailed))
	set("routing.incl_ms_per_op", perOp(ms(incl), ops))
	setP50("experiment.sweep_ms_p50", durationsMS(sweeps))
	setP50("experiment.render_ms_p50", durationsMS(t.renders))
	set("trace.overhead_frac", median(tracedWall)/base.wall.Seconds()-1)
	set("trace.profile_samples", float64(p.samples))

	for _, l := range selfLayers {
		set(l+".self_frac", frac(uint64(p.layerSamples[l]), uint64(p.samples)))
	}
	set("sim.ns_per_event", frac(uint64(p.layerNanos["sim"]), sum.events))
	set("phy.us_per_frame", frac(uint64(p.layerNanos["phy"]+p.layerNanos["geo"]), sum.frames)/1e3)

	set("sim.events_per_op", per(sum.events))
	set("phy.frames_per_op", per(sum.frames))
	set("phy.collided_frac", frac(sum.collided, sum.collided+sum.decoded))
	set("mac.rts_per_op", per(sum.macSent[packet.FrameRTS]))
	set("mac.cts_per_op", per(sum.macSent[packet.FrameCTS]))
	set("mac.data_per_op", per(sum.macSent[packet.FrameData]))
	set("mac.ack_per_op", per(sum.macSent[packet.FrameAck]))
	set("mac.retries_per_op", per(sum.retries))
	set("mac.queue_drops_per_op", per(sum.queueDrops))
	set("mac.link_failures_per_op", per(sum.linkFailures))
	set("routing.control_per_op", per(control))
	set("routing.discoveries_per_op", per(discoveries))
	set("core.switches_per_op", per(switches))
	set("core.checks_per_op", per(checks))
	set("dsr.salvages_per_op", per(salvages))
	set("tcp.segments_per_op", per(segments))
	set("tcp.retx_per_op", per(retx))
	set("tcp.timeouts_per_op", per(timeouts))
	set("tcp.goodput_frac", frac(distinct, segments))
	set("adversary.dropped_per_op", per(dropped))
	set("adversary.attracted_per_op", per(attracted))
	set("eaves.frames_per_op", per(eavesFrames))
	set("countermeasure.trust_drops_per_op", per(trustDrops))
	set("countermeasure.shuffled_per_op", per(shuffled))
	set("runcache.hit_frac", frac(uint64(t.hits), uint64(t.hits+t.misses)))

	// The runtime and engine costs come from the untraced repetition, so
	// the tracer's own work does not inflate them.
	set("runtime.mallocs_per_op", perOp(float64(base.mallocs), base.ops))
	set("runtime.alloc_mb_per_op", perOp(float64(base.allocBytes)/(1<<20), base.ops))
	set("runtime.gc_cycles_per_op", perOp(float64(base.gcs), base.ops))
	set("runtime.gc_pause_ms_per_op", perOp(float64(base.gcPauseNs)/1e6, base.ops))
	set("engine.cpu_s", base.cpu.Seconds())
	set("engine.cores_busy", base.cpu.Seconds()/base.wall.Seconds())
}
