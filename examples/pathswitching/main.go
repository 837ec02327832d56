// Pathswitching: watch MTS's distinguishing mechanism live. The example
// builds the paper's mobile scenario, then samples the source's current
// path and the destination's stored disjoint-path set every two seconds of
// virtual time, printing a timeline of route checking, best-route switching
// and discovery flushes (§III-D/E of the paper).
package main

import (
	"fmt"
	"log"

	"mtsim"
	"mtsim/internal/core"
)

func main() {
	cfg := mtsim.DefaultConfig()
	cfg.Protocol = "MTS"
	cfg.MaxSpeed = 10
	cfg.Duration = 60 * mtsim.Second
	cfg.Seed = 2

	s, err := mtsim.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	src, dst := s.Flows[0].Src, s.Flows[0].Dst
	srcRouter := s.Nodes[src].Proto.(*core.Router)
	dstRouter := s.Nodes[dst].Proto.(*core.Router)

	fmt.Printf("flow: node %d -> node %d; eavesdropper: node %d\n\n", src, dst, s.Adversary.Members()[0].Node)
	fmt.Printf("%5s %9s %6s %6s %7s %8s %9s %9s\n",
		"t(s)", "delivered", "path", "next", "live", "stored", "switches", "checks")

	var lastDelivered uint64
	prevPath := -1
	for t := mtsim.Duration(0); t <= cfg.Duration; t += 2 * mtsim.Second {
		s.Sched.RunUntil(mtsim.Time(t))
		delivered := s.Sinks[0].Stats.Distinct
		pathID, next, ok := srcRouter.CurrentPath(dst)
		marker := ""
		if ok && pathID != prevPath && prevPath >= 0 {
			marker = "  <- switched"
		}
		if ok {
			prevPath = pathID
		}
		fmt.Printf("%5.0f %9d %6d %6d %7d %8d %9d %9d%s\n",
			mtsim.Time(t).Seconds(), delivered-lastDelivered, pathID, next,
			srcRouter.LivePathCount(dst), len(dstRouter.StoredPaths(src)),
			srcRouter.Stats.Switches, dstRouter.Stats.ChecksSent, marker)
		lastDelivered = delivered
	}

	m := s.Gather()
	fmt.Printf("\ntotal: %.1f pkt/s, delay %.1f ms, %d discoveries, %d path switches\n",
		m.ThroughputPps, m.AvgDelaySec*1000, m.Extra["discoveries"], m.Extra["switches"])
}
