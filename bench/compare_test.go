package bench

import (
	"math/rand"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

// runs builds untraced reports of one workload whose wall_s is centre
// times a uniform factor in [1-jitter, 1+jitter].
func runs(rng *rand.Rand, n int, centre, jitter float64) []Report {
	out := make([]Report, n)
	for i := range out {
		out[i] = Report{Workload: PaperGrid, Seed: int64(i + 1), Correct: true, Attempted: 1,
			Metrics: map[string]Value{"wall_s": {Value: centre * (1 + jitter*(2*rng.Float64()-1)), Unit: "s"}}}
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	bounds := []Bound{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}}
	cases := []struct {
		name       string
		pairs      int
		head       float64
		headJitter float64
		want       string
	}{
		{"win", 10, 0.80, 0.01, Better},
		{"win needs ten pairs", 9, 0.80, 0.01, Same},
		{"no change", 10, 1.00, 0.01, Same},
		{"regression", 10, 1.20, 0.01, Worse},
		{"spread beyond bound", 10, 1.00, 0.40, Unresolved},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(1))
		base := runs(rng, c.pairs, 1.0, 0.01)
		head := runs(rng, c.pairs, c.head, c.headJitter)
		rows, problems := Compare(base, head, bounds)
		if len(problems) != 0 {
			t.Errorf("%s: problems %v", c.name, problems)
		}
		if len(rows) != 1 || rows[0].Verdict != c.want {
			t.Errorf("%s: rows %+v, want one %s", c.name, rows, c.want)
		}
	}
}

func TestCompareFlagsCountDriftAndFailedRuns(t *testing.T) {
	traced := func(seed int64, events float64) Report {
		return Report{Workload: Dense1000, Seed: seed, Trace: true, Correct: true, Attempted: 1,
			Metrics: map[string]Value{"sim.events_per_op": {Value: events}, "sim.run_ms_p50": {Value: float64(seed)}}}
	}
	base := []Report{traced(1, 100), traced(2, 200)}
	head := []Report{traced(1, 100), traced(2, 201), {Workload: Dense1000, Seed: 3, Attempted: 5, Failed: 1}}
	_, problems := Compare(base, head, nil)
	if len(problems) != 2 {
		t.Fatalf("problems %q, want the seed-2 count drift and the failed run", problems)
	}
}
