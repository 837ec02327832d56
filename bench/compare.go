package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Bound is one end-to-end metric as BENCHMARK.json declares it: the share
// of the base median by which it may worsen before a change regresses.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadBounds reads the end_to_end list of a BENCHMARK.json.
func LoadBounds(path string) ([]Bound, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []Bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(doc, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// AppendRun appends a report to a run-set file: JSON lines, one report
// per benchmark invocation.
func AppendRun(path string, r *Report) error {
	doc, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(doc, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRuns reads a run-set file. A spec of the form "file#label" keeps
// only the reports carrying that label, so one file can hold several
// run sets.
func ReadRuns(spec string) ([]Report, error) {
	path, label, labelled := strings.Cut(spec, "#")
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs, err := decodeRuns(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !labelled {
		return runs, nil
	}
	var out []Report
	for _, r := range runs {
		if r.Label == label {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs labelled %q", path, label)
	}
	return out, nil
}

func decodeRuns(rd io.Reader) ([]Report, error) {
	var out []Report
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r Report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Verdicts of a comparison row.
const (
	Better     = "better"
	Worse      = "worse"
	Same       = "same"
	Unresolved = "unresolved"
)

// minPairs is the fewest base/head pairs on which a gain may be claimed.
const minPairs = 10

// Row compares one end-to-end metric of one workload across two run sets.
type Row struct {
	Workload, Metric       string
	Pairs                  int
	BaseMedian, HeadMedian float64
	// Change is the head median's move relative to the base median,
	// signed so that positive is worse.
	Change float64
	// Spread is the larger of the two sides' quartile distance over
	// median.
	Spread float64
	Bound  float64
	// Wins counts pairs the head side won; ties count for neither.
	Wins    int
	Verdict string
}

// Compare judges head against base, pairing the i-th untraced run of
// each workload on one side with the i-th on the other:
//
//   - unresolved: either side's spread exceeds the bound, unless every
//     head run beats every base run;
//   - worse: the head median is worse by more than the bound;
//   - better: at least ten pairs, the head wins nine in ten of them, and
//     the medians differ by more than the base's quartile distance;
//   - same: otherwise.
//
// It also lists every gated per-layer metric on which traced runs of the
// same workload and seed disagree, and every run that failed its checks.
func Compare(base, head []Report, bounds []Bound) (rows []Row, problems []string) {
	for _, side := range []struct {
		name string
		runs []Report
	}{{"base", base}, {"head", head}} {
		for _, r := range side.runs {
			if !r.Correct {
				problems = append(problems, fmt.Sprintf("%s: %s seed %d failed its checks (%d of %d ops)",
					side.name, r.Workload, r.Seed, r.Failed, r.Attempted))
			}
		}
	}
	for _, w := range Workloads() {
		b, h := runsOf(base, w, false), runsOf(head, w, false)
		n := min(len(b), len(h))
		if n == 0 {
			continue
		}
		for _, bd := range bounds {
			rows = append(rows, compareMetric(w, bd, values(b[:n], bd.Name), values(h[:n], bd.Name)))
		}
	}
	for _, w := range Workloads() {
		hs := runsOf(head, w, true)
		for _, b := range runsOf(base, w, true) {
			for _, h := range hs {
				if h.Seed != b.Seed {
					continue
				}
				for _, d := range perLayer {
					bv, hv := b.Metrics[d.name].Value, h.Metrics[d.name].Value
					if d.gated && math.Abs(hv-bv) > d.tol*math.Abs(bv) {
						problems = append(problems, fmt.Sprintf("%s seed %d: %s differs: base %v, head %v",
							w, b.Seed, d.name, bv, hv))
					}
				}
			}
		}
	}
	return rows, problems
}

func runsOf(runs []Report, workload string, trace bool) []Report {
	var out []Report
	for _, r := range runs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []Report, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

func compareMetric(workload string, bd Bound, b, h []float64) Row {
	sign := 1.0 // lower is better
	if bd.Better == "higher" {
		sign = -1
	}
	row := Row{Workload: workload, Metric: bd.Name, Pairs: len(b), Bound: bd.Bound,
		BaseMedian: median(b), HeadMedian: median(h)}
	rel := func(x, of float64) float64 {
		if of == 0 {
			if x == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return x / math.Abs(of)
	}
	bq1, bq3 := quartiles(b)
	hq1, hq3 := quartiles(h)
	row.Spread = math.Max(rel(bq3-bq1, row.BaseMedian), rel(hq3-hq1, row.HeadMedian))
	row.Change = rel(sign*(row.HeadMedian-row.BaseMedian), row.BaseMedian)
	allBetter := true
	for i := range b {
		if sign*(h[i]-b[i]) < 0 {
			row.Wins++
		}
		for j := range h {
			if sign*(h[j]-b[i]) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case row.Spread > bd.Bound && !allBetter:
		row.Verdict = Unresolved
	case row.Change > bd.Bound:
		row.Verdict = Worse
	case row.Pairs >= minPairs && row.Wins*10 >= 9*row.Pairs &&
		sign*(row.BaseMedian-row.HeadMedian) > bq3-bq1:
		row.Verdict = Better
	default:
		row.Verdict = Same
	}
	return row
}
