// Command topoviz renders an ASCII snapshot of a scenario's topology at
// chosen moments of virtual time: node positions on the field, the TCP
// endpoints (S/D), the eavesdropper (E), and radio adjacency statistics.
// It is a debugging aid for understanding why a given seed behaves the way
// it does.
//
//	topoviz -protocol MTS -speed 10 -seed 4 -at 0,50,100
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mtsim"
)

func main() {
	var (
		protocol = flag.String("protocol", "MTS", "routing protocol")
		nodes    = flag.Int("nodes", 50, "number of nodes")
		speed    = flag.Float64("speed", 10, "MAXSPEED m/s")
		seed     = flag.Int64("seed", 1, "seed")
		at       = flag.String("at", "0,100,200", "comma-separated snapshot times (s)")
		width    = flag.Int("width", 50, "render width in characters")
	)
	flag.Parse()

	cfg := mtsim.DefaultConfig()
	cfg.Protocol = *protocol
	cfg.Nodes = *nodes
	cfg.MaxSpeed = *speed
	cfg.Seed = *seed

	times := parseTimes(*at)
	last := times[len(times)-1]
	cfg.Duration = mtsim.Seconds(last + 1)

	s, err := mtsim.Build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topoviz:", err)
		os.Exit(1)
	}
	srcID, dstID := s.Flows[0].Src, s.Flows[0].Dst
	fmt.Printf("seed %d: flow %d -> %d, eavesdropper %d\n\n", *seed, srcID, dstID, s.Adversary.Members()[0].Node)

	for _, ts := range times {
		s.Sched.RunUntil(mtsim.Time(mtsim.Seconds(ts)))
		fmt.Printf("t = %.0fs\n", ts)
		render(s, *width)
		fmt.Println()
	}
}

func render(s *mtsim.Scenario, w int) {
	h := w / 2 // terminal cells are ~2:1
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", w))
	}
	fw, fh := s.Cfg.Field.Width(), s.Cfg.Field.Height()
	links := 0
	eaves := s.Adversary.Members()[0].Node
	for i, nd := range s.Nodes {
		p := nd.Position()
		x := int(p.X / fw * float64(w-1))
		y := int(p.Y / fh * float64(h-1))
		c := byte('o')
		switch {
		case mtsim.NodeID(i) == s.Flows[0].Src:
			c = 'S'
		case mtsim.NodeID(i) == s.Flows[0].Dst:
			c = 'D'
		case mtsim.NodeID(i) == eaves:
			c = 'E'
		}
		if grid[y][x] == '.' || c != 'o' {
			grid[y][x] = c
		}
		for j := i + 1; j < len(s.Nodes); j++ {
			if nd.Position().DistanceTo(s.Nodes[j].Position()) <= s.Cfg.RxRange {
				links++
			}
		}
	}
	for _, row := range grid {
		fmt.Println(string(row))
	}
	fmt.Printf("(%d nodes, %d radio links, mean degree %.1f)\n",
		len(s.Nodes), links, 2*float64(links)/float64(len(s.Nodes)))
}

func parseTimes(s string) []float64 {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "topoviz: bad -at:", err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		out = []float64{0}
	}
	return out
}
