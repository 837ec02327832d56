package routing

import (
	"testing"

	"mtsim/internal/packet"
)

// TestMultiPathSelectDeterministic: the pick is a pure function of
// (owner, dst, flow, n) — repeated calls agree, and a few values pinned
// from the hash's definition guard its exact bits, which every golden
// fixture with an equal-cost choice depends on.
func TestMultiPathSelectDeterministic(t *testing.T) {
	for flow := uint64(0); flow < 64; flow++ {
		for dst := packet.NodeID(1); dst <= 8; dst++ {
			if a, b := ECMPIndex(7, dst, flow, 4), ECMPIndex(7, dst, flow, 4); a != b {
				t.Fatalf("flow %d dst %d: picks diverged: %d vs %d", flow, dst, a, b)
			}
		}
	}
	for _, c := range []struct {
		owner, dst packet.NodeID
		flow       uint64
		want       int
	}{
		{0, 4, 2, 624503},
		{7, 3, 5, 998578},
		{29, 1, 0, 813448},
		{3, 9, ^uint64(0), 953111},
	} {
		if got := ECMPIndex(c.owner, c.dst, c.flow, 1000003); got != c.want {
			t.Errorf("ECMPIndex(%d, %d, %d, 1000003) = %d, want %d", c.owner, c.dst, c.flow, got, c.want)
		}
	}
}

// TestMultiPathSpreadsFlows: over several candidates, distinct flows must
// not all collapse onto one member — otherwise the hash adds no fan-out.
func TestMultiPathSpreadsFlows(t *testing.T) {
	used := map[int]bool{}
	for flow := uint64(0); flow < 256; flow++ {
		used[ECMPIndex(3, 9, flow, 4)] = true
	}
	if len(used) < 2 {
		t.Fatalf("256 flows all hashed to one candidate of 4: %v", used)
	}
}

// TestMultiPathOwnerChangesStream: different owners must hash the same
// (flow, dst) differently somewhere — otherwise every node in the network
// would make correlated ECMP choices and load would not spread.
func TestMultiPathOwnerChangesStream(t *testing.T) {
	diverged := false
	for flow := uint64(0); flow < 64 && !diverged; flow++ {
		diverged = ECMPIndex(1, 9, flow, 8) != ECMPIndex(2, 9, flow, 8)
	}
	if !diverged {
		t.Fatal("owners 1 and 2 produced identical pick streams over 64 flows")
	}
}

// TestECMPIndexBounds: the pick must stay in [0, n) for awkward inputs
// (flow 0, huge flows, n = 1).
func TestECMPIndexBounds(t *testing.T) {
	for _, flow := range []uint64{0, 1, ^uint64(0), 0x9E3779B97F4A7C15} {
		for n := 1; n <= 7; n++ {
			if got := ECMPIndex(5, 3, flow, n); got < 0 || got >= n {
				t.Fatalf("ECMPIndex(5, 3, %d, %d) = %d out of range", flow, n, got)
			}
		}
	}
}

// TestFlowKey: TCP packets key on the flow id (retransmissions of one
// flow stay pinned together); non-TCP packets fall back to src/dst.
func TestFlowKey(t *testing.T) {
	tcp := &packet.Packet{Src: 1, Dst: 2, TCP: &packet.TCPHeader{Flow: 4}}
	tcpSameFlow := &packet.Packet{Src: 9, Dst: 8, TCP: &packet.TCPHeader{Flow: 4}}
	if FlowKey(tcp) != FlowKey(tcpSameFlow) {
		t.Fatal("same TCP flow keyed differently")
	}
	ctl := &packet.Packet{Src: 1, Dst: 2}
	ctlOther := &packet.Packet{Src: 1, Dst: 3}
	if FlowKey(ctl) == FlowKey(ctlOther) {
		t.Fatal("distinct control src/dst pairs collided")
	}
	tcpOther := &packet.Packet{Src: 1, Dst: 2, TCP: &packet.TCPHeader{Flow: 5}}
	if FlowKey(tcp) == FlowKey(tcpOther) {
		t.Fatal("distinct TCP flows between the same endpoints collided")
	}
}
