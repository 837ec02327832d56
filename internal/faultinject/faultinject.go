// Package faultinject is the seeded, deterministic chaos harness for the
// sweep engine: it wraps the engine's Runner and Cache seams to make
// selected cells panic, error out, or livelock into the watchdog, and to
// tear or fail cache I/O — all chosen by hashing the cell's full
// configuration under a chaos seed, so the same Plan faults the same
// cells on every machine and every run. A faulted cell fails every time
// it runs under the Plan; recovery is a fault-free resume over the same
// run cache, which is what lets the chaos suite assert the headline
// robustness property: a KeepGoing sweep under injected faults records
// exactly the faulted cells, and the resume then aggregates
// bit-identically to the fault-free sweep, re-simulating exactly the
// cells the faults cost. The injectors fabricate nothing — an injected
// "slow run" squeezes the real watchdog's event budget so the genuine
// mid-run kill-and-retire path is exercised, and a torn cache entry is
// real corrupt bytes on disk for runcache's quarantine to catch.
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"

	"mtsim/internal/experiment"
	"mtsim/internal/metrics"
	"mtsim/internal/runcache"
	"mtsim/internal/scenario"
)

// Plan declares which faults to inject and how often. Rates are
// per-cell probabilities in [0,1]; a cell's fate is a pure function of
// its configuration and Seed, so a Plan names a reproducible chaos
// universe, not a dice roll.
type Plan struct {
	// Seed selects the chaos universe: it salts every per-cell draw.
	Seed int64
	// PanicRate, ErrorRate and SlowRate are the per-cell probabilities
	// of the three fault kinds. A cell is assigned at most one kind,
	// checked in that order.
	PanicRate float64
	ErrorRate float64
	SlowRate  float64
	// SlowEvents is the event budget an injected slow run is squeezed
	// to (the real watchdog then kills the real run mid-flight). Values
	// below 1 mean 8 — low enough to trip even the smallest chaos cell
	// now that batched PHY delivery collapses each transmission's 2·k
	// arrival events into two.
	SlowEvents uint64
}

func (p Plan) slowEvents() uint64 {
	if p.SlowEvents < 1 {
		return 8
	}
	return p.SlowEvents
}

// draw maps (cfg, which, Seed) to a uniform value in [0,1): the first 64
// bits of the cell's content hash under a chaos-scoped salt. Unhashable
// configurations draw 1 (never faulted) — the engine will surface the
// real error instead.
func (p Plan) draw(cfg scenario.Config, which string) float64 {
	key, err := runcache.KeySalted(cfg, fmt.Sprintf("faultinject/%s/%d", which, p.Seed))
	if err != nil {
		return 1
	}
	v, err := strconv.ParseUint(key[:16], 16, 64)
	if err != nil {
		return 1
	}
	return float64(v>>11) / float64(uint64(1)<<53)
}

// faultKind assigns a cell its fault, or "" for a healthy cell.
func (p Plan) faultKind(cfg scenario.Config) string {
	if p.draw(cfg, "panic") < p.PanicRate {
		return experiment.KindPanic
	}
	if p.draw(cfg, "error") < p.ErrorRate {
		return experiment.KindError
	}
	if p.draw(cfg, "slow") < p.SlowRate {
		return experiment.KindTimeout
	}
	return ""
}

// Injector applies a Plan at the engine's Runner seam and counts how
// many faults of each kind it injected.
type Injector struct {
	Plan Plan

	mu       sync.Mutex
	injected map[string]int // by fault kind
}

// New returns an Injector for the given plan.
func New(p Plan) *Injector {
	return &Injector{Plan: p, injected: make(map[string]int)}
}

// Counts reports how many faults of each kind were injected so far.
func (in *Injector) Counts() (panics, errs, slows int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected[experiment.KindPanic], in.injected[experiment.KindError], in.injected[experiment.KindTimeout]
}

// Runner wraps next (DefaultRunner when nil) with the plan's faults:
// assign Injector.Runner(nil) to Sweep.Runner and the chaos applies to
// every simulated cell.
func (in *Injector) Runner(next experiment.Runner) experiment.Runner {
	if next == nil {
		next = experiment.DefaultRunner
	}
	return func(ctx *scenario.Context, cfg scenario.Config, w experiment.Watchdog) (*metrics.RunMetrics, error) {
		kind := in.Plan.faultKind(cfg)
		in.mu.Lock()
		in.injected[kind]++
		in.mu.Unlock()
		switch kind {
		case experiment.KindPanic:
			panic("faultinject: injected panic")
		case experiment.KindError:
			return nil, errors.New("faultinject: injected error")
		case experiment.KindTimeout:
			// A "slow" run is the real simulation squeezed under a tiny
			// event budget: the genuine watchdog kills it mid-run through
			// the genuine retire path. Nothing is faked.
			w.MaxEvents = in.Plan.slowEvents()
		}
		return next(ctx, cfg, w)
	}
}

// CacheFaults declares deterministic cache-I/O chaos, drawn per cell
// exactly like Plan's rates.
type CacheFaults struct {
	Seed int64
	// PutErrRate: Put fails with an injected error, nothing written —
	// the erroring-directory case.
	PutErrRate float64
	// TearRate: Put succeeds, then the entry's bytes are truncated
	// mid-document — the torn-write case runcache must quarantine on the
	// next read.
	TearRate float64
	// GetErrRate: Get degrades to a forced miss — the unreadable-entry
	// case; the sweep recomputes.
	GetErrRate float64
}

// FlakyCache wraps a real on-disk store with CacheFaults. It satisfies
// experiment.Cache, so it drops into Sweep.Cache unchanged.
type FlakyCache struct {
	Store  *runcache.Store
	Faults CacheFaults

	mu      sync.Mutex
	putErrs int
	torn    map[string]bool // entry paths torn at least once
	getErrs int
}

func (c *FlakyCache) draw(cfg scenario.Config, which string) float64 {
	return Plan{Seed: c.Faults.Seed}.draw(cfg, "cache-"+which)
}

// Counts reports how many cache faults of each kind were injected. A
// cell whose entry is torn again when it is re-put counts as one tear:
// tears is the number of distinct torn cells.
func (c *FlakyCache) Counts() (putErrs, tears, getErrs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putErrs, len(c.torn), c.getErrs
}

// Get serves the underlying store, except for cells drawn as erroring
// reads, which miss.
func (c *FlakyCache) Get(cfg scenario.Config) (*metrics.RunMetrics, bool) {
	if c.draw(cfg, "get") < c.Faults.GetErrRate {
		c.mu.Lock()
		c.getErrs++
		c.mu.Unlock()
		return nil, false
	}
	return c.Store.Get(cfg)
}

// Put writes through to the underlying store, then injects the cell's
// cache fault: an outright error, or a torn entry (real truncated bytes
// at the entry's real path).
func (c *FlakyCache) Put(cfg scenario.Config, m *metrics.RunMetrics) error {
	if c.draw(cfg, "put") < c.Faults.PutErrRate {
		c.mu.Lock()
		c.putErrs++
		c.mu.Unlock()
		path, _ := c.Store.EntryPath(cfg)
		return fmt.Errorf("faultinject: injected put error for %s", path)
	}
	if err := c.Store.Put(cfg, m); err != nil {
		return err
	}
	if c.draw(cfg, "tear") < c.Faults.TearRate {
		if path, err := c.Store.EntryPath(cfg); err == nil {
			if raw, err := os.ReadFile(path); err == nil && len(raw) > 2 {
				if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err == nil {
					c.mu.Lock()
					if c.torn == nil {
						c.torn = make(map[string]bool)
					}
					c.torn[path] = true
					c.mu.Unlock()
				}
			}
		}
	}
	return nil
}
