// Package app provides application-level traffic sources. The paper's
// workload is FTP over TCP Reno (an infinite backlog); a CBR/UDP-style
// source is included for MAC/routing tests and extensions.
package app

import (
	"mtsim/internal/packet"
	"mtsim/internal/sim"
	"mtsim/internal/tcp"
)

// FTP drives a TCP sender with an unlimited backlog, starting at a
// configurable time.
type FTP struct {
	Sender  *tcp.Sender
	StartAt sim.Time
}

// NewFTP attaches an infinite file transfer to the given sender.
func NewFTP(sender *tcp.Sender, startAt sim.Time) *FTP {
	return &FTP{Sender: sender, StartAt: startAt}
}

// Install schedules the transfer start on the scheduler.
func (f *FTP) Install(sched *sim.Scheduler) {
	sched.At(f.StartAt, func() {
		f.Sender.Supply(1 << 40) // effectively infinite
		f.Sender.Start()
	})
}

// CBRNetwork is the node interface a CBR source needs.
type CBRNetwork interface {
	ID() packet.NodeID
	Scheduler() *sim.Scheduler
	UIDs() *packet.UIDSource
	Originate(p *packet.Packet)
}

// CBR emits fixed-size datagrams at a constant rate (no transport layer,
// no reliability) — useful for stressing routing without TCP dynamics.
type CBR struct {
	net      CBRNetwork
	ar       *packet.Arena // resolved once from net; nil means plain allocation
	dst      packet.NodeID
	flow     int
	size     int
	interval sim.Duration
	startAt  sim.Time
	stopAt   sim.Time
	seq      int64
	tickFn   func() // c.tick, bound once: a method value per packet would allocate

	Sent uint64
}

// NewCBR creates a CBR source of `size`-byte payloads every interval,
// active in [startAt, stopAt).
func NewCBR(net CBRNetwork, flow int, dst packet.NodeID, size int, interval sim.Duration, startAt, stopAt sim.Time) *CBR {
	c := &CBR{
		net: net, dst: dst, flow: flow, size: size,
		interval: interval, startAt: startAt, stopAt: stopAt,
	}
	c.tickFn = c.tick
	// Resolve the node's packet arena once (node.SetArena precedes source
	// attachment); plain test networks stay on ordinary allocation.
	if carrier, ok := net.(interface{ Arena() *packet.Arena }); ok {
		c.ar = carrier.Arena()
	}
	return c
}

// Install schedules the source.
func (c *CBR) Install(sched *sim.Scheduler) {
	sched.At(c.startAt, c.tickFn)
}

func (c *CBR) tick() {
	sched := c.net.Scheduler()
	if sched.Now() >= c.stopAt {
		return
	}
	now := sched.Now()
	p := c.ar.NewPacketFrom(packet.Packet{
		UID:       c.net.UIDs().Next(),
		Kind:      packet.KindData,
		Size:      packet.IPHeaderBytes + c.size,
		Src:       c.net.ID(),
		Dst:       c.dst,
		TTL:       64,
		CreatedAt: now,
		DataID:    uint64(c.seq) + 1,
	})
	h := c.ar.AttachTCP(p)
	h.Flow, h.Seq, h.SentAt = c.flow, c.seq, now
	c.seq++
	c.Sent++
	c.net.Originate(p)
	sched.After(c.interval, c.tickFn)
}
