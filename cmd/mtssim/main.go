// Command mtssim runs a single ad hoc network simulation and reports the
// paper's metrics for it.
//
// Usage:
//
//	mtssim -protocol MTS -speed 10 -seed 1 -duration 200
//	mtssim -protocol DSR -nodes 50 -speed 20 -json
//	mtssim -protocol AODV -table1
//	mtssim -protocol MTS -trace run.tr     # ns-2-style packet trace
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mtsim"
)

func main() {
	var (
		protocol = flag.String("protocol", "MTS", "routing protocol: DSR, AODV or MTS")
		nodes    = flag.Int("nodes", 50, "number of nodes")
		speed    = flag.Float64("speed", 10, "MAXSPEED in m/s (0 = static random placement)")
		pause    = flag.Float64("pause", 1, "random-waypoint pause time in seconds")
		duration = flag.Float64("duration", 200, "simulated seconds")
		seed     = flag.Int64("seed", 1, "random seed (runs are deterministic per seed)")
		field    = flag.Float64("field", 1000, "square field edge length in metres")
		src      = flag.Int("src", -1, "TCP source node (-1 = random)")
		dst      = flag.Int("dst", -1, "TCP destination node (-1 = random)")
		eaves    = flag.Int("eaves", -1, "pin the eavesdropper to this node (-1 = a random non-endpoint)")
		jsonOut  = flag.Bool("json", false, "emit metrics as JSON")
		table1   = flag.Bool("table1", false, "print the Table I relay normalization for this run")
		traceTo  = flag.String("trace", "", "write an ns-2-style packet trace to this file")
	)
	flag.Parse()

	cfg := mtsim.DefaultConfig()
	cfg.Protocol = *protocol
	cfg.Nodes = *nodes
	cfg.MaxSpeed = *speed
	cfg.Pause = mtsim.Seconds(*pause)
	cfg.Duration = mtsim.Seconds(*duration)
	cfg.Seed = *seed
	cfg.Field.MaxX = *field
	cfg.Field.MaxY = *field
	if *eaves >= 0 {
		cfg.Adversary.Nodes = []mtsim.NodeID{mtsim.NodeID(*eaves)}
	}
	if (*src >= 0) != (*dst >= 0) {
		fmt.Fprintln(os.Stderr, "mtssim: -src and -dst must be given together")
		os.Exit(2)
	}
	if *src >= 0 {
		cfg.Flows = []mtsim.FlowSpec{{Src: mtsim.NodeID(*src), Dst: mtsim.NodeID(*dst)}}
	}

	s, err := mtsim.Build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtssim:", err)
		os.Exit(1)
	}
	if *traceTo != "" {
		f, err := os.Create(*traceTo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mtssim:", err)
			os.Exit(1)
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		mtsim.AttachTrace(s, w)
	}
	m := s.Run()

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m); err != nil {
			fmt.Fprintln(os.Stderr, "mtssim:", err)
			os.Exit(1)
		}
	case *table1:
		fmt.Print(mtsim.RenderTable1(m))
	default:
		fmt.Printf("protocol            %s\n", m.Protocol)
		fmt.Printf("maxspeed            %g m/s\n", m.MaxSpeed)
		fmt.Printf("seed                %d\n", m.Seed)
		fmt.Printf("simulated           %.0f s (%d events)\n", m.Duration.Seconds(), m.EventsRun)
		fmt.Printf("eavesdropper        node %d\n", m.EavesdropperID)
		fmt.Println()
		fmt.Printf("participating nodes %d\n", m.Participating)
		fmt.Printf("relay stddev (Eq.4) %.4f\n", m.RelayStdDev)
		fmt.Printf("interception ratio  %.4f\n", m.InterceptionRatio)
		fmt.Printf("highest interception%.4f\n", m.HighestInterception)
		fmt.Println()
		fmt.Printf("avg delay           %.4f s\n", m.AvgDelaySec)
		fmt.Printf("throughput          %.1f pkt/s (%.1f kb/s)\n", m.ThroughputPps, m.ThroughputKbps)
		fmt.Printf("delivery rate       %.4f\n", m.DeliveryRate)
		fmt.Printf("control packets     %d\n", m.ControlPkts)
		fmt.Println()
		fmt.Printf("segments sent       %d (%d retransmits, %d timeouts)\n",
			m.SegmentsSent, m.Retransmits, m.Timeouts)
		if len(m.Extra) > 0 {
			fmt.Printf("protocol extras     %v\n", m.Extra)
		}
	}
}
