// Package trace writes per-event packet traces in an ns-2-inspired line
// format, for debugging scenarios and for external analysis tooling:
//
//	s 12.345678 _19_ MAC --- 812 DATA 1068 [37 -> 11] seq 42 path 3
//	r 12.346102 _30_ MAC --- 812 DATA 1068 [37 -> 11] seq 42 path 3
//
// Columns: action (s=send, r=receive successfully, e=receive corrupted),
// virtual time, node, layer, frame UID, payload kind, bytes, end-to-end
// addresses, then kind-specific detail.
package trace

import (
	"fmt"
	"io"

	"mtsim/internal/node"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// Tracer mirrors MAC activity of the attached nodes into an io.Writer.
type Tracer struct {
	w     io.Writer
	sched *sim.Scheduler
	// Lines counts emitted records (tests, sanity checks).
	Lines uint64
}

// New creates a tracer writing to w, timestamped by sched's clock.
func New(w io.Writer, sched *sim.Scheduler) *Tracer {
	return &Tracer{w: w, sched: sched}
}

// AttachNode registers the tracer as a stage on one node: every frame
// the node airs and every frame it hears addressed to it (or broadcast).
func (t *Tracer) AttachNode(n *node.Node) {
	id := n.ID()
	n.AddStage(node.Stage{
		Aired: func(f *packet.Frame) { t.record('s', id, f) },
		Tap: func(f *packet.Frame) {
			if f.TxTo == id || f.TxTo == packet.Broadcast {
				t.record('r', id, f)
			}
		},
	})
}

func (t *Tracer) record(action byte, at packet.NodeID, f *packet.Frame) {
	t.Lines++
	if f.Payload == nil {
		fmt.Fprintf(t.w, "%c %.6f _%d_ MAC --- %d %s 0 [%d -> %d]\n",
			action, t.sched.Now().Seconds(), at, f.UID, f.Kind, f.TxFrom, f.TxTo)
		return
	}
	p := f.Payload
	detail := ""
	switch {
	case p.TCP != nil && p.TCP.Ack:
		detail = fmt.Sprintf(" ack %d", p.TCP.Seq)
	case p.TCP != nil:
		detail = fmt.Sprintf(" seq %d path %d", p.TCP.Seq, p.PathID)
	}
	fmt.Fprintf(t.w, "%c %.6f _%d_ MAC --- %d %s %d [%d -> %d]%s\n",
		action, t.sched.Now().Seconds(), at, f.UID, p.Kind, p.Size, p.Src, p.Dst, detail)
}
