package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if !almostEq(Mean([]float64{1, 2, 3}), 2) {
		t.Fatal("mean")
	}
}

func TestStdDevSample(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := 2 * math.Sqrt(8.0/7.0)
	if !almostEq(StdDevSample(xs), want) {
		t.Fatalf("sample stddev = %v want %v", StdDevSample(xs), want)
	}
	if StdDevSample([]float64{1}) != 0 {
		t.Fatal("singleton sample stddev")
	}
}

func TestCI95(t *testing.T) {
	xs := []float64{10, 10, 10, 10}
	if CI95(xs) != 0 {
		t.Fatal("constant data must have zero CI")
	}
	if CI95([]float64{1}) != 0 {
		t.Fatal("singleton CI")
	}
	if CI95([]float64{1, 3}) <= 0 {
		t.Fatal("CI must be positive for varying data")
	}
}

// Property: sample stddev is translation-invariant.
func TestStdDevProperties(t *testing.T) {
	f := func(raw []int8, shift int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v) + float64(shift)
		}
		return math.Abs(StdDevSample(xs)-StdDevSample(ys)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: stddev is non-negative and zero for constant slices.
func TestStdDevNonNegative(t *testing.T) {
	f := func(raw []int8) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		return StdDevSample(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeCasesEmptyAndSingleton(t *testing.T) {
	// n = 0: every estimator is defined as 0, never NaN.
	if Mean(nil) != 0 || StdDevSample(nil) != 0 || CI95(nil) != 0 {
		t.Fatal("n=0 estimators must be 0")
	}
	// n = 1: a single repetition has no spread estimate; CI95 must be 0
	// (not NaN from a 0/0), so single-rep sweep tables stay printable.
	one := []float64{42}
	if CI95(one) != 0 || StdDevSample(one) != 0 {
		t.Fatalf("n=1: CI95=%v sd=%v, want 0", CI95(one), StdDevSample(one))
	}
	if Mean(one) != 42 {
		t.Fatal("n=1 mean")
	}
}

func TestNaNPropagation(t *testing.T) {
	// A NaN observation must poison the aggregate, not vanish into a
	// plausible-looking number: silently averaging around a NaN metric
	// would hide a broken metric extractor.
	xs := []float64{1, math.NaN(), 3}
	if !math.IsNaN(Mean(xs)) {
		t.Fatal("mean must propagate NaN")
	}
	if !math.IsNaN(StdDevSample(xs)) {
		t.Fatal("stddev must propagate NaN")
	}
	if !math.IsNaN(CI95(xs)) {
		t.Fatal("CI95 must propagate NaN")
	}
}
