package bench

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"mtsim/internal/experiment"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	doc, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(doc, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload, untraced and traced, at tiny size: every
// check must pass, and the emitted metrics must be exactly the ones
// BENCHMARK.json declares, with the declared units.
func TestSmoke(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range Workloads() {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			rep, err := Run(Options{Workload: w, Seed: 7, Trace: trace, WorkDir: t.TempDir(), size: tiny})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed %d of %d: %v", w, trace, rep.Correct, rep.Failed, rep.Attempted, rep.Problems)
			}
			got := sortedKeys(rep.Metrics)
			if wantNames := sortedKeys(want); !equal(got, wantNames) {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", w, trace, got, wantNames)
			}
			for name, v := range rep.Metrics {
				if v.Unit == "" || v.Unit != want[name] {
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", w, trace, name, v.Unit, want[name])
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w, trace, name, v.Value)
				}
			}
			res, err := rep.Result()
			if err != nil {
				t.Fatal(err)
			}
			var top map[string]json.RawMessage
			if err := json.Unmarshal(res, &top); err != nil {
				t.Fatal(err)
			}
			if keys := sortedKeys(top); !equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s: result keys %v", w, keys)
			}
			if trace && rep.Metrics["trace.profile_samples"].Value > 0 {
				sum := 0.0
				for _, l := range selfLayers {
					sum += rep.Metrics[l+".self_frac"].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: self fractions sum to %v", w, sum)
				}
			}
		}
	}
}

// TestSameSeedSameInputs pins the seed contract: inputs are a function of
// the seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range Workloads() {
		a, _ := newWorkload(w, 42, full)
		b, _ := newWorkload(w, 42, full)
		c, _ := newWorkload(w, 43, full)
		ja, jb, jc := jobs(a), jobs(b), jobs(c)
		if ja != jb {
			t.Errorf("%s: seed 42 gave two different inputs", w)
		}
		if ja == jc {
			t.Errorf("%s: seeds 42 and 43 gave the same inputs", w)
		}
	}
}

func jobs(w *workload) string {
	var all []experiment.CellJob
	for _, sw := range w.sweeps {
		all = append(all, sw.Jobs()...)
	}
	doc, _ := json.Marshal(all)
	return string(doc)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
