package tcp

import (
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// SinkStats counts receiver-side events; the metrics layer reads them for
// throughput (Fig. 9), delivery rate (Fig. 10) and delay (Fig. 8).
type SinkStats struct {
	Arrivals       uint64 // data packets that reached the sink (incl. dups)
	Distinct       uint64 // distinct segments received
	DupArrivals    uint64
	AcksSent       uint64
	TotalDelay     sim.Duration // summed end-to-end delay of first arrivals
	LastArrival    sim.Time
	HighestInOrder int64 // == Distinct when no loss reordering remains
}

// Sink is the receiving TCP endpoint: it acknowledges every arriving data
// segment with the highest in-order sequence number received so far
// (cumulative ACK, ns-2 TCPSink semantics, no delayed ACK).
type Sink struct {
	net  Network
	ar   *packet.Arena // net's arena, resolved once
	flow int

	nextExpected int64
	outOfOrder   map[int64]bool

	// OnDeliver, when set, observes each first arrival of a segment.
	OnDeliver func(p *packet.Packet)

	// Mute suppresses acknowledgements, turning the sink into a passive
	// datagram counter for CBR/UDP-style workloads.
	Mute bool

	Stats SinkStats
}

// NewSink creates a sink for the given flow and registers it with the node.
func NewSink(net Network, flow int) *Sink {
	k := &Sink{
		net:        net,
		ar:         net.Arena(),
		flow:       flow,
		outOfOrder: make(map[int64]bool),
	}
	net.RegisterFlow(flow, k.receive)
	return k
}

func (k *Sink) receive(p *packet.Packet, _ packet.NodeID) {
	if p.TCP == nil || p.TCP.Ack {
		return
	}
	now := k.net.Scheduler().Now()
	k.Stats.Arrivals++
	k.Stats.LastArrival = now

	seq := p.TCP.Seq
	isNew := seq >= k.nextExpected && !k.outOfOrder[seq]
	if isNew {
		k.Stats.Distinct++
		k.Stats.TotalDelay += now.Sub(p.CreatedAt)
		if k.OnDeliver != nil {
			k.OnDeliver(p)
		}
		if seq == k.nextExpected {
			k.nextExpected++
			for k.outOfOrder[k.nextExpected] {
				delete(k.outOfOrder, k.nextExpected)
				k.nextExpected++
			}
		} else {
			k.outOfOrder[seq] = true
		}
	} else {
		k.Stats.DupArrivals++
	}
	k.Stats.HighestInOrder = k.nextExpected - 1

	if k.Mute {
		return
	}
	ack := k.ar.NewPacketFrom(packet.Packet{
		UID:       k.net.UIDs().Next(),
		Kind:      packet.KindAck,
		Size:      packet.IPHeaderBytes + packet.TCPHeaderBytes,
		Src:       k.net.ID(),
		Dst:       p.Src,
		TTL:       64,
		CreatedAt: now,
	})
	h := k.ar.AttachTCP(ack)
	h.Flow = k.flow
	h.Seq = k.nextExpected - 1
	h.Ack = true
	h.SentAt = p.TCP.SentAt // echo for the sender's RTT sample
	k.Stats.AcksSent++
	k.net.Originate(ack)
}

// NextExpected returns the sink's next in-order sequence (tests).
func (k *Sink) NextExpected() int64 { return k.nextExpected }
