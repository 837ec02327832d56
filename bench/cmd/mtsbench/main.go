// Command mtsbench runs the repository benchmark.
//
//	mtsbench -workload paper-grid -seed 3 -seconds 20 -trace 0
//
// runs one workload in this process and prints one line per metric
// ("workload metric value unit"), then, as the last line of standard
// output, a JSON object with the correctness verdict, the op counts and
// the metrics. It exits 1 when any check failed.
//
//	mtsbench -seed 1 [-trace 1]
//
// runs every workload, each in a fresh process of its own, and appends
// every run's report, with its raw per-repetition samples, to -out.
//
//	mtsbench compare BASE.jsonl[#label] HEAD.jsonl[#label]
//
// judges two run sets against the bounds in BENCHMARK.json.
//
// Run it from the repository root, where it reads BENCHMARK.json and keeps
// its scratch files in .bench_build/; bench/run.sh builds it and does so.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"text/tabwriter"
	"time"

	"mtsim/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mtsbench", flag.ExitOnError)
	workload := fs.String("workload", "", "run only this workload, in this process (default: every workload, one process each)")
	seed := fs.Int64("seed", 1, "workload seed: the benchmark derives every input from it")
	seconds := fs.Int("seconds", 20, "length of the timed phase of each workload, in seconds")
	trace := fs.Int("trace", 0, "1 makes a traced run, which reports the per-layer metrics")
	out := fs.String("out", "", "append each run's report, raw samples included, to this JSON-lines file")
	label := fs.String("label", "", "label stored in each report, naming its run set within a shared -out file")
	fs.Parse(args)
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "mtsbench: -trace takes 0 or 1")
		return 2
	}
	if *workload == "" {
		return runAll(args, *out)
	}

	rep, err := bench.Run(bench.Options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  time.Duration(*seconds) * time.Second,
		Trace:    *trace == 1,
		WorkDir:  ".bench_build/work",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtsbench:", err)
		return 1
	}
	rep.Label = *label
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "mtsbench: %s: %s\n", rep.Workload, p)
	}
	if *out != "" {
		if err := bench.AppendRun(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "mtsbench:", err)
			return 1
		}
	}
	for _, l := range rep.Lines() {
		fmt.Println(l)
	}
	res, err := rep.Result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtsbench:", err)
		return 1
	}
	fmt.Println(string(res))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload, so each workload
// starts in a fresh process, and passes the metric lines through.
func runAll(args []string, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtsbench:", err)
		return 1
	}
	if out == "" {
		out = ".bench_build/results.jsonl"
		args = append(args, "-out", out)
	}
	status := 0
	for _, w := range bench.Workloads() {
		cmd := exec.Command(exe, append([]string{"-workload", w}, args...)...)
		cmd.Stderr = os.Stderr
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		err := cmd.Run()
		var last string
		sc := bufio.NewScanner(&stdout)
		for sc.Scan() {
			if last != "" {
				fmt.Println(last)
			}
			last = sc.Text()
		}
		var res struct{ Correct bool }
		if json.Unmarshal([]byte(last), &res) != nil || !res.Correct || err != nil {
			fmt.Fprintf(os.Stderr, "mtsbench: workload %s failed: %v\n", w, err)
			status = 1
		}
	}
	fmt.Fprintln(os.Stderr, "mtsbench: reports appended to", out)
	return status
}

func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: mtsbench compare BASE.jsonl[#label] HEAD.jsonl[#label]")
		return 2
	}
	bounds, err := bench.LoadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtsbench:", err)
		return 1
	}
	base, err := bench.ReadRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtsbench:", err)
		return 1
	}
	head, err := bench.ReadRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtsbench:", err)
		return 1
	}
	rows, problems := bench.Compare(base, head, bounds)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\tbase median\thead median\tchange\tspread\tbound\twins\tverdict")
	status := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.0f%%\t%d/%d\t%s\n",
			r.Workload, r.Metric, r.Pairs, r.BaseMedian, r.HeadMedian, 100*r.Change,
			100*r.Spread, 100*r.Bound, r.Wins, r.Pairs, r.Verdict)
		if r.Verdict == bench.Worse || r.Verdict == bench.Unresolved {
			status = 1
		}
	}
	tw.Flush()
	for _, p := range problems {
		fmt.Println("problem:", p)
		status = 1
	}
	fmt.Printf("%d rows, %d problems\n", len(rows), len(problems))
	return status
}
