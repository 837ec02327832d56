package experiment

// This file closes the attacker–defender loop: an iterated best-response
// harness that alternates attacker and defender moves over the sweep
// engine until the strategy pair stops moving. Each move evaluates one
// row (every attacker against the incumbent defender) or one column (every
// defender against the incumbent attacker) of the payoff matrix through
// cache-backed Sweep.Run calls, so revisited cells cost nothing and two
// same-seed harness runs produce bit-identical payoff tables — the
// property TestCoevolutionConverges pins.

import (
	"fmt"
	"sort"
	"strings"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/scenario"
)

// Payoff is one cell of the attacker × defender payoff matrix: the three
// committed components plus the scalar the players optimise. Score is the
// DEFENDER's utility (delivery minus interceptable contiguity); the
// attacker minimises it, the defender maximises it.
type Payoff struct {
	Delivery       float64 // mean delivery rate over the cell's repetitions
	Intercept      float64 // mean in-order intercepted stream ratio
	ThroughputKbps float64 // mean goodput
	Score          float64 // Delivery − Intercept, the defender's utility
}

// Move is one best-response step in the co-evolution history.
type Move struct {
	Round  int    // 1-based round the move happened in
	Player string // "attacker" or "defender"
	From   int    // strategy index before the move
	To     int    // strategy index after (== From when the player stood)
}

// Coevolution declares an iterated best-response game between an attacker
// choosing among Attackers and a defender choosing among Defenders, played
// over the simulator at one protocol and speed. The zero value is not
// usable; Attackers and Defenders must each name at least one strategy
// (index 0 is both players' opening strategy, so list the status quo —
// the lone eavesdropper, the undefended baseline — first).
type Coevolution struct {
	Base      scenario.Config
	Protocol  string  // "" means Base.Protocol
	Speed     float64 // 0 means Base.MaxSpeed
	Attackers []adversary.Spec
	Defenders []countermeasure.Spec
	Reps      int   // repetitions per cell (≥1)
	SeedBase  int64 // repetition r uses SeedBase+r, like Sweep
	// MaxRounds bounds the best-response iterations (default 8). A game
	// whose best responses cycle stops here with Converged=false.
	MaxRounds int
	// Tolerance is the strict score improvement a player needs before
	// abandoning its incumbent strategy; 0 means any improvement. It is
	// the float-noise guard that keeps near-tied strategies from
	// oscillating forever.
	Tolerance float64

	// Sweep plumbing, passed through to every evaluation sweep. The Cache
	// is what makes iteration affordable: a cell revisited in a later
	// round is a hit, not a re-simulation. It is also how a failed game
	// recovers: the first failed cell fails the game (a payoff missing
	// repetitions would steer the best response), and a second game over
	// the same Cache simulates only the cells the first did not finish.
	Parallelism int
	Cache       Cache
	Watchdog    Watchdog
	Journal     *Journal
	Runner      Runner
}

// CoevolutionResult is the completed game: the equilibrium (or the state
// at MaxRounds), every payoff cell evaluated along the way, and the move
// history.
type CoevolutionResult struct {
	Attacker  int  // equilibrium attacker strategy index
	Defender  int  // equilibrium defender strategy index
	Rounds    int  // best-response rounds played
	Converged bool // true: neither player moved in the final round

	// AttackerLabels and DefenderLabels are the canonical axis labels, in
	// strategy order (collision-suffixed like the sweep engine's).
	AttackerLabels []string
	DefenderLabels []string
	// Payoffs holds every evaluated cell keyed by [attacker, defender]
	// strategy index. Cells never visited by a best-response move are
	// absent.
	Payoffs map[[2]int]*Payoff
	Moves   []Move
}

func (c Coevolution) protocol() string {
	if c.Protocol != "" {
		return c.Protocol
	}
	return c.Base.Protocol
}

func (c Coevolution) speed() float64 {
	if c.Speed != 0 {
		return c.Speed
	}
	return c.Base.MaxSpeed
}

func (c Coevolution) maxRounds() int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return 8
}

// sweepFor builds the one-move evaluation sweep: the given attacker and
// defender strategy subsets at the game's single protocol and speed, with
// all the fault-tolerance plumbing passed through.
func (c Coevolution) sweepFor(atts []adversary.Spec, defs []countermeasure.Spec) Sweep {
	return Sweep{
		Base:            c.Base,
		Protocols:       []string{c.protocol()},
		Speeds:          []float64{c.speed()},
		Reps:            c.Reps,
		SeedBase:        c.SeedBase,
		Adversaries:     atts,
		Countermeasures: defs,
		Parallelism:     c.Parallelism,
		Cache:           c.Cache,
		Watchdog:        c.Watchdog,
		Journal:         c.Journal,
		Runner:          c.Runner,
	}
}

// payoffAt distills one evaluated cell into its Payoff.
func payoffAt(res *Result, key CellKey) *Payoff {
	runs := res.Runs[key]
	p := &Payoff{}
	if len(runs) == 0 {
		return p
	}
	for _, m := range runs {
		p.Delivery += m.DeliveryRate
		p.Intercept += m.InterceptedStreamRatio
		p.ThroughputKbps += m.ThroughputKbps
	}
	n := float64(len(runs))
	p.Delivery /= n
	p.Intercept /= n
	p.ThroughputKbps /= n
	p.Score = p.Delivery - p.Intercept
	return p
}

// evalRow evaluates every attacker against defender di; evalCol evaluates
// every defender against attacker ai. Both return payoffs in strategy
// order and record them in the result's matrix.
func (c Coevolution) evalRow(res *CoevolutionResult, di int) ([]*Payoff, error) {
	sw := c.sweepFor(c.Attackers, c.Defenders[di:di+1])
	r, err := sw.Run()
	if err != nil {
		return nil, err
	}
	advLabels := sw.AdversaryLabels()
	cmLabel := sw.CountermeasureLabels()[0]
	out := make([]*Payoff, len(c.Attackers))
	for ai := range c.Attackers {
		key := CellKey{Protocol: c.protocol(), Speed: c.speed(), Adversary: advLabels[ai], Countermeasure: cmLabel}
		out[ai] = payoffAt(r, key)
		res.Payoffs[[2]int{ai, di}] = out[ai]
	}
	return out, nil
}

func (c Coevolution) evalCol(res *CoevolutionResult, ai int) ([]*Payoff, error) {
	sw := c.sweepFor(c.Attackers[ai:ai+1], c.Defenders)
	r, err := sw.Run()
	if err != nil {
		return nil, err
	}
	advLabel := sw.AdversaryLabels()[0]
	cmLabels := sw.CountermeasureLabels()
	out := make([]*Payoff, len(c.Defenders))
	for di := range c.Defenders {
		key := CellKey{Protocol: c.protocol(), Speed: c.speed(), Adversary: advLabel, Countermeasure: cmLabels[di]}
		out[di] = payoffAt(r, key)
		res.Payoffs[[2]int{ai, di}] = out[di]
	}
	return out, nil
}

// bestResponse scans candidate payoffs in ascending strategy order and
// returns the index the player should hold next: the extremal strategy
// (minimising for the attacker, maximising for the defender), but only if
// it beats the incumbent's payoff by strictly more than Tolerance —
// otherwise the incumbent stands. Ascending scan with strict comparison
// makes ties deterministic (lowest index wins).
func (c Coevolution) bestResponse(scores []*Payoff, incumbent int, maximise bool) int {
	best := 0
	for i := 1; i < len(scores); i++ {
		if maximise {
			if scores[i].Score > scores[best].Score {
				best = i
			}
		} else if scores[i].Score < scores[best].Score {
			best = i
		}
	}
	gain := scores[best].Score - scores[incumbent].Score
	if !maximise {
		gain = -gain
	}
	if best != incumbent && gain > c.Tolerance {
		return best
	}
	return incumbent
}

// Run plays the game: each round the attacker best-responds to the
// incumbent defender, then the defender best-responds to the (possibly
// new) attacker. The game ends when a full round moves neither player —
// a pure-strategy fixed point of the empirical payoff matrix — or at
// MaxRounds. Determinism end to end: the simulator is deterministic, the
// scan orders are fixed, and no wall clock or RNG is consulted, so two
// same-seed games produce identical results byte for byte.
func (c Coevolution) Run() (*CoevolutionResult, error) {
	if len(c.Attackers) == 0 || len(c.Defenders) == 0 {
		return nil, fmt.Errorf("coevolution: need at least one attacker and one defender strategy")
	}
	if c.Reps < 1 {
		return nil, fmt.Errorf("coevolution: Reps must be >= 1")
	}
	// The engine's collision-suffixed labels, so two identically-labelled
	// specs still get distinct columns in the payoff table.
	_, attLabels := axis(c.Attackers, adversary.Spec{})
	_, defLabels := axis(c.Defenders, countermeasure.Spec{})
	res := &CoevolutionResult{
		AttackerLabels: attLabels,
		DefenderLabels: defLabels,
		Payoffs:        map[[2]int]*Payoff{},
	}
	ai, di := 0, 0
	for round := 1; round <= c.maxRounds(); round++ {
		res.Rounds = round
		prevA, prevD := ai, di

		row, err := c.evalRow(res, di)
		if err != nil {
			return nil, fmt.Errorf("coevolution round %d (attacker move): %w", round, err)
		}
		next := c.bestResponse(row, ai, false)
		res.Moves = append(res.Moves, Move{Round: round, Player: "attacker", From: ai, To: next})
		ai = next

		col, err := c.evalCol(res, ai)
		if err != nil {
			return nil, fmt.Errorf("coevolution round %d (defender move): %w", round, err)
		}
		next = c.bestResponse(col, di, true)
		res.Moves = append(res.Moves, Move{Round: round, Player: "defender", From: di, To: next})
		di = next

		if ai == prevA && di == prevD {
			res.Converged = true
			break
		}
	}
	res.Attacker, res.Defender = ai, di
	return res, nil
}

// PayoffTable renders the evaluated payoff matrix as an aligned text
// table: one row per attacker, one column per defender, the defender's
// score (delivery − intercepted contiguity) in each evaluated cell, a dot
// for never-visited cells, and a star on the equilibrium. Deterministic
// byte-for-byte for a deterministic game.
func (r *CoevolutionResult) PayoffTable() string {
	var b strings.Builder
	state := "stopped at round limit"
	if r.Converged {
		state = fmt.Sprintf("converged in %d round(s)", r.Rounds)
	}
	fmt.Fprintf(&b, "coevolution — defender score (delivery − intercepted contiguity), %s\n", state)
	fmt.Fprintf(&b, "equilibrium: attacker=%s defender=%s\n",
		r.AttackerLabels[r.Attacker], orBase(r.DefenderLabels[r.Defender], "base"))
	fmt.Fprintf(&b, "%-20s", "attacker \\ defender")
	for _, d := range r.DefenderLabels {
		fmt.Fprintf(&b, "%16s", orBase(d, "base"))
	}
	b.WriteString("\n")
	for ai, a := range r.AttackerLabels {
		fmt.Fprintf(&b, "%-20s", a)
		for di := range r.DefenderLabels {
			if p, ok := r.Payoffs[[2]int{ai, di}]; ok {
				mark := " "
				if ai == r.Attacker && di == r.Defender {
					mark = "*"
				}
				fmt.Fprintf(&b, "%15.4f%s", p.Score, mark)
			} else {
				fmt.Fprintf(&b, "%15s ", "·")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// PayoffCSV renders every evaluated cell with its three payoff components,
// sorted by (attacker, defender) strategy index.
func (r *CoevolutionResult) PayoffCSV() string {
	cells := make([][2]int, 0, len(r.Payoffs))
	for k := range r.Payoffs {
		cells = append(cells, k)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i][0] != cells[j][0] {
			return cells[i][0] < cells[j][0]
		}
		return cells[i][1] < cells[j][1]
	})
	var b strings.Builder
	b.WriteString("attacker,defender,delivery,intercepted_stream_ratio,throughput_kbps,score\n")
	for _, k := range cells {
		p := r.Payoffs[k]
		fmt.Fprintf(&b, "%s,%s,%.6f,%.6f,%.6f,%.6f\n",
			r.AttackerLabels[k[0]], orBase(r.DefenderLabels[k[1]], "base"),
			p.Delivery, p.Intercept, p.ThroughputKbps, p.Score)
	}
	return b.String()
}

// History renders the move sequence one line per move.
func (r *CoevolutionResult) History() string {
	var b strings.Builder
	for _, m := range r.Moves {
		label := func(i int) string {
			if m.Player == "attacker" {
				return r.AttackerLabels[i]
			}
			return orBase(r.DefenderLabels[i], "base")
		}
		action := "stands on " + label(m.To)
		if m.From != m.To {
			action = fmt.Sprintf("switches %s -> %s", label(m.From), label(m.To))
		}
		fmt.Fprintf(&b, "round %d: %s %s\n", m.Round, m.Player, action)
	}
	return b.String()
}
