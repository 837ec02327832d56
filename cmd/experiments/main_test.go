package main

// Regression test for the -only validation: an unknown artefact ID must
// be a fast non-zero exit that names the valid values — not a full
// sweep that renders nothing and exits 0. The test re-executes its own
// binary as the experiments command (the standard helper-process
// pattern), so the real main(), flag parsing and exit path are under
// test.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestHelperProcess is not a test: re-invoked by the tests below with
// GO_WANT_HELPER_PROCESS set, it becomes the experiments binary.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("GO_WANT_HELPER_PROCESS") != "1" {
		t.Skip("helper process stub")
	}
	os.Args = append([]string{"experiments"}, strings.Fields(os.Getenv("HELPER_ARGS"))...)
	// main registers its flags on the global CommandLine, which the
	// test framework already populated — start it fresh.
	flag.CommandLine = flag.NewFlagSet("experiments", flag.ExitOnError)
	main()
	os.Exit(0)
}

func runExperiments(t *testing.T, args string) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess")
	cmd.Env = append(os.Environ(), "GO_WANT_HELPER_PROCESS=1", "HELPER_ARGS="+args)
	return cmd.CombinedOutput()
}

func TestUnknownOnlyExitsNonZeroWithoutSimulating(t *testing.T) {
	start := time.Now()
	out, err := runExperiments(t, "-only fig12")
	elapsed := time.Since(start)
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("-only fig12 exited 0; a typo silently ran the sweep\noutput: %s", out)
	}
	text := string(out)
	if !strings.Contains(text, "fig12") {
		t.Fatalf("error does not name the bad value:\n%s", text)
	}
	if !strings.Contains(text, "fig5") || !strings.Contains(text, "countermeasure") {
		t.Fatalf("error does not list the valid artefact IDs:\n%s", text)
	}
	if strings.Contains(text, "running") {
		t.Fatalf("the sweep banner printed — simulation started before validation:\n%s", text)
	}
	// Seconds, not the minutes a 200 s × 75-cell sweep takes: the
	// failure happened before any simulation.
	if elapsed > 30*time.Second {
		t.Fatalf("rejection took %s — it simulated first", elapsed)
	}
}

func TestValidOnlyValuesPassValidation(t *testing.T) {
	for _, v := range []string{"all", "table1", "timeseries", "adversary", "countermeasure", "fig5", "fig11"} {
		if err := validateOnly(v); err != nil {
			t.Errorf("validateOnly(%q) = %v, want nil", v, err)
		}
	}
	for _, v := range []string{"fig12", "fig4", "table2", "", "Fig5"} {
		if err := validateOnly(v); err == nil {
			t.Errorf("validateOnly(%q) accepted an unknown artefact", v)
		}
	}
}

// TestAxisViewsRender drives the -only adversary and -only countermeasure
// render loops end to end on a tiny grid (3 s runs carry no traffic, which
// is fine here): the exact CSV file set written under -out, and each
// table's title and header on stdout.
func TestAxisViewsRender(t *testing.T) {
	cases := []struct {
		name, args string
		files      []string
		lines      []string
	}{
		{
			name: "adversary",
			args: "-only adversary -advmodels coalition,blackhole -ks 1",
			files: []string{"advDeliv_speed10.csv", "advDrop_speed10.csv", "advPe_speed10.csv",
				"advRi_speed10.csv", "adversary.txt"},
			lines: []string{
				"advRi — Coalition interception ratio (union Pe / Pr, Eq. 1 generalized) (ratio) at 10 m/s",
				fmt.Sprintf("%-18s%20s", "adversary", "MTS"),
			},
		},
		{
			name: "countermeasure",
			args: "-only countermeasure -cms none,shuffle -cm-advmodels coalition -ks 1 -cm-speed 10",
			files: []string{"advDeliv_coalition×1.csv", "advRi_coalition×1.csv", "cmReasmRun_coalition×1.csv",
				"cmShuffled_coalition×1.csv", "cmStreamBytes_coalition×1.csv", "cmStreamRatio_coalition×1.csv",
				"cmStreamRun_coalition×1.csv", "countermeasure.txt"},
			lines: []string{
				"cmShuffled — Segments released in permuted order (packets) at 10 m/s vs coalition×1",
				fmt.Sprintf("%-20s%20s", "countermeasure", "MTS"),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			out, err := runExperiments(t, "-duration 3 -reps 1 -protocols MTS -speeds 10 -q -out "+dir+" "+tc.args)
			if err != nil {
				t.Fatalf("experiments %s: %v\n%s", tc.args, err, out)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var files []string
			for _, e := range entries {
				files = append(files, e.Name())
			}
			if !slices.Equal(files, tc.files) {
				t.Fatalf("files under -out = %q, want %q", files, tc.files)
			}
			lines := strings.Split(string(out), "\n")
			for _, want := range tc.lines {
				if !slices.Contains(lines, want) {
					t.Errorf("stdout lacks line %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestKeepGoingRejectedForCoevolution: the game has no degraded mode (a
// payoff missing repetitions would steer the best response), so
// -keep-going with -only coevolution must fail before anything runs —
// no cache opened, no journal written — and point at -resume.
func TestKeepGoingRejectedForCoevolution(t *testing.T) {
	dir := t.TempDir()
	cacheDir, journal := dir+"/cache", dir+"/attempts.jsonl"
	out, err := runExperiments(t, "-only coevolution -keep-going -duration 3 -reps 1 -coev-rounds 1 -cache-dir "+cacheDir+" -journal "+journal)
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("-keep-going -only coevolution exited 0; the flag was silently ignored\noutput: %s", out)
	}
	if !strings.Contains(string(out), "-keep-going") || !strings.Contains(string(out), "-resume") {
		t.Fatalf("rejection does not name the flag and point at -resume:\n%s", out)
	}
	for _, path := range []string{cacheDir, journal} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s exists after the rejection: something ran first (stat: %v)", path, err)
		}
	}
	if strings.Contains(string(out), "coevolution finished") {
		t.Fatalf("the game ran before the rejection:\n%s", out)
	}
}

// TestJournalWriteFailureWarns: a -journal that loses records must say
// so on stderr, even under -q, on the sweep exit, the first-error exit
// and the coevolution exit. /dev/full accepts the open and fails every
// write with ENOSPC.
func TestJournalWriteFailureWarns(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	const tiny = "-q -journal /dev/full -reps 1 -protocols MTS -speeds 10 "
	for _, tc := range []struct {
		name, args string
		exitOK     bool
		output     string // proof the run reached the exit under test
	}{
		{"sweep", tiny + "-duration 3 -only fig5", true, "fig5 — "},
		// 8 s runs carry traffic, so a 10-event budget kills the first cell.
		{"first-error", tiny + "-duration 8 -only fig5 -run-events 10", false, "event-budget watchdog"},
		{"coevolution", tiny + "-duration 3 -only coevolution -coev-attackers eavesdropper -coev-defenders none -coev-rounds 1", true, "equilibrium:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runExperiments(t, tc.args)
			if (err == nil) != tc.exitOK {
				t.Fatalf("experiments %s: exit error %v, want exit ok = %v\n%s", tc.args, err, tc.exitOK, out)
			}
			if !strings.Contains(string(out), tc.output) {
				t.Fatalf("output lacks %q:\n%s", tc.output, out)
			}
			if !strings.Contains(string(out), "warning: journal incomplete") ||
				!strings.Contains(string(out), "no space left on device") {
				t.Fatalf("no journal warning on stderr:\n%s", out)
			}
		})
	}
}
