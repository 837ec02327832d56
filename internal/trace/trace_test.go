package trace

import (
	"reflect"
	"strings"
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/scenario"
	"mtsim/internal/sim"
)

func TestTracerRecordsExchange(t *testing.T) {
	cfg := scenario.DefaultConfig()
	cfg.Protocol = "AODV"
	cfg.Placement = []geo.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}}
	cfg.Field = geo.Field(500, 100)
	cfg.Flows = []scenario.FlowSpec{{Src: 0, Dst: 2}}
	cfg.Adversary.Nodes = []packet.NodeID{1}
	cfg.Duration = 2 * sim.Second
	cfg.TCPStart = sim.Time(100 * sim.Millisecond)

	s, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	tr := New(&buf, s.Sched)
	for _, n := range s.Nodes {
		tr.AttachNode(n)
	}
	s.Run()

	out := buf.String()
	if tr.Lines == 0 || out == "" {
		t.Fatal("tracer produced nothing")
	}
	// The trace must contain sends and receives of broadcasts (RREQ),
	// data, and TCP acks with their details.
	for _, want := range []string{"s ", "r ", "RREQ", "DATA", "seq ", "ack ", "_0_", "_1_", "_2_"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q; head:\n%s", want, head(out, 10))
		}
	}
	// Lines are well-formed: action, time, node.
	for i, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if len(line) < 10 || (line[0] != 's' && line[0] != 'r') {
			t.Fatalf("malformed trace line %d: %q", i, line)
		}
	}
}

// TestTracerPreservesMetricsHook attaches the tracer next to the metrics
// collector and checks both outputs: the run's metrics are identical to
// an untraced run of the same configuration, and the trace records the
// frames sent and heard.
func TestTracerPreservesMetricsHook(t *testing.T) {
	cfg := scenario.DefaultConfig()
	cfg.Protocol = "MTS"
	cfg.Placement = []geo.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}}
	cfg.Field = geo.Field(500, 100)
	cfg.Flows = []scenario.FlowSpec{{Src: 0, Dst: 2}}
	cfg.Adversary.Nodes = []packet.NodeID{1}
	cfg.Duration = 2 * sim.Second
	cfg.TCPStart = sim.Time(100 * sim.Millisecond)

	plain, err := scenario.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	tr := New(&buf, s.Sched)
	for _, n := range s.Nodes {
		tr.AttachNode(n)
	}
	m := s.Run()
	if m.ControlPkts == 0 {
		t.Fatal("metrics hook lost after tracer attachment")
	}
	if !reflect.DeepEqual(m, plain) {
		t.Errorf("tracing changed the metrics:\n traced   %+v\n untraced %+v", m, plain)
	}
	out := buf.String()
	if uint64(strings.Count(out, "\n")) != tr.Lines {
		t.Errorf("Lines = %d, trace has %d lines", tr.Lines, strings.Count(out, "\n"))
	}
	for _, want := range []string{"s ", "r ", "RREQ", "DATA"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q; head:\n%s", want, head(out, 10))
		}
	}
}

func head(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
