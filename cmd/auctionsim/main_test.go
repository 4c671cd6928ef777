package main

import (
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// modesArgsEnv carries a newline-separated argument list: TestMain
// runs main() on it, so a test drives the command exactly as an
// operator would, exit code included.
const modesArgsEnv = "AUCTIONSIM_ARGS"

// runMain re-execs the test binary as `auctionsim args...` and returns
// its combined output, failing the test unless it exits 0.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), modesArgsEnv+"="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("auctionsim %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// lineWith returns the first output line starting with prefix.
func lineWith(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("no %q line in:\n%s", prefix, out)
	return ""
}

// checkJournal asserts the drain's journal line shows the journaled
// spend equal to the in-memory ledger's and returns that spend.
func checkJournal(t *testing.T, out string) string {
	t.Helper()
	var journaled, memory string
	line := lineWith(t, out, "journal:")
	if _, err := fmt.Sscanf(line, "journal: spent(journal)=%s spent(memory)=%s", &journaled, &memory); err != nil {
		t.Fatalf("journal line %q: %v", line, err)
	}
	if journaled != memory {
		t.Fatalf("spent(journal)=%s != spent(memory)=%s", journaled, memory)
	}
	return journaled
}

// TestModesEndToEnd runs small versions of the world, engine and
// stream modes through main() and checks the lines operators and the
// soaks read: every run exits 0, drains keep their identity, the
// journal agrees with memory, and -recover resumes from the spend the
// first run journaled. The subtests run in parallel, the two-run
// stream chain first: each child is a separate process, and a
// race-enabled one idles a second at exit.
func TestModesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary once per mode")
	}
	small := []string{"-n", "200", "-seed", "5"}

	t.Run("stream-journal-recover", func(t *testing.T) {
		t.Parallel()
		stream := slices.Concat(small, []string{"-stream", "-qps", "4000", "-duration", "300ms", "-report", "600",
			"-churn", "2", "-budget", "50", "-journal", t.TempDir()})
		first := runMain(t, stream...)
		second := runMain(t, append(stream, "-recover")...)
		for _, out := range []string{first, second} {
			if line := lineWith(t, out, "drained:"); !strings.Contains(line, "(identity true)") {
				t.Fatalf("drain broke the identity: %s", line)
			}
		}
		journaled := checkJournal(t, first)
		checkJournal(t, second)
		if line := lineWith(t, second, "recovery: advertisers="); !strings.Contains(line, " spend="+journaled+" ") {
			t.Fatalf("recovered %q, want the first run's journaled spend %s", line, journaled)
		}
	})

	for name, args := range map[string][]string{
		"world":             {"-auctions", "1000", "-report", "500"},
		"world-heavy-vcg":   {"-method", "heavy", "-pricing", "vcg", "-slots", "4", "-auctions", "100", "-report", "50"},
		"engine":            {"-engine", "-auctions", "1000", "-report", "500"},
		"engine-broadmatch": {"-engine", "-broadmatch", "0.4", "-squash", "0.5", "-reserve", "3", "-auctions", "1000", "-report", "500"},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out := runMain(t, slices.Concat(small, args)...)
			lineWith(t, out, "  advertisers over target:")
			if args[0] == "-engine" {
				lineWith(t, out, "total: ")
			}
		})
	}
}

// TestParseArgs pins the mode table's contract: every rejection
// returns an error naming the offending flag (main turns it into exit
// 2 with the usage), and every documented invocation parses into the
// mode it was written for.
func TestParseArgs(t *testing.T) {
	for _, c := range []struct {
		args string
		want string // substring of the error
	}{
		// Value and "needs" checks.
		{"-method foo", "-method"},
		{"-pricing foo", "-pricing"},
		{"-stream -overload foo", "-overload"},
		{"-budget 10 -budget-policy foo", "-budget-policy"},
		{"-stream -budget 10 -journal j -fsync sometimes", "-fsync"},
		{"-heavy-parallel -1", "-heavy-parallel"},
		{"-method heavy -slots 21", "-slots"},
		{"-engine -broadmatch 1.5", "-broadmatch"},
		{"-stream -broadmatch -0.1", "-broadmatch"},
		{"-engine -broadmatch 0.4 -squash 0", "-squash"},
		{"-engine -squash 0.5", "-squash"},
		{"-engine -reserve -1", "-reserve"},
		{"-engine -trace-sample -1", "-trace-sample"},
		{"-engine -journal j", "-journal"},
		{"-stream -budget 10 -recover", "-recover"},
		{"-report 0", "-report"},
		{"-engine -report -5", "-report"},
		{"-auctions 0", "-auctions"},
		{"-n 0", "-n"},
		{"-keywords 0", "-keywords"},
		{"-stream -qps 0", "-qps"},
		{"-stream -qps -3", "-qps"},
		{"-stream -duration 0s", "-duration"},
		{"-stream -duration -1s", "-duration"},
		// Mode selection and flags the mode does not read.
		{"-engine -stream", "-engine and -stream"},
		{"-serve 127.0.0.1:0 -connect 127.0.0.1:1", "-serve and -connect"},
		{"-broadmatch 0.4", "-broadmatch"},
		{"-serve 127.0.0.1:0 -broadmatch 0.4", "-broadmatch"},
		{"-connect 127.0.0.1:1 -broadmatch 0.4", "-broadmatch"},
		{"-reserve 3", "-reserve"},
		{"-squash 0.5", "-squash"},
		{"-trace-sample 4", "-trace-sample"},
		{"-connect 127.0.0.1:1 -trace-sample 4", "-trace-sample"},
		{"-metrics-addr 127.0.0.1:0", "-metrics-addr"},
		{"-engine -qps 100", "-qps"},
		{"-conns 3", "-conns"},
		{"-engine -drain", "-drain"},
		{"-stream -auctions 100", "-auctions"},
		{"-serve 127.0.0.1:0 -report 10", "-report"},
		{"-serve 127.0.0.1:0 -zipf 1.2", "-zipf"},
		{"-connect 127.0.0.1:1 -n 10", "-n"},
		{"-connect 127.0.0.1:1 -budget 10", "-budget"},
		{"-shards 4", "-shards"},
		{"-engine 5000", `"5000"`},
	} {
		if _, _, err := parseArgs(strings.Fields(c.args)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseArgs(%s) = %v, want an error naming %s", c.args, err, c.want)
		}
	}

	// Every Usage line of the package documentation must parse.
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, line := range strings.Split(string(src), "\n") {
		if args, ok := strings.CutPrefix(line, "//\tauctionsim "); ok {
			documented = append(documented, args)
		}
	}
	if len(documented) < 11 {
		t.Fatalf("found %d Usage lines in the package doc, want at least 11", len(documented))
	}
	for _, args := range documented {
		if _, _, err := parseArgs(strings.Fields(args)); err != nil {
			t.Errorf("documented invocation %q: %v", args, err)
		}
	}

	// The invocations the verify skill drives, with the mode each runs.
	for _, c := range []struct{ args, mode string }{
		{"-n 800 -auctions 5000 -method RH -report 1000", "world"},
		{"-engine -shards 4 -n 800 -auctions 5000 -method RH", "engine"},
		{"-method heavy -slots 4 -heavy-parallel 2 -seed 3", "world"},
		{"-stream -n 300 -qps 8000 -duration 1s -churn 3 -overload block -seed 5", "stream"},
		{"-stream -qps 30000 -duration 2s -overload shed -zipf 1.2 -burst 4", "stream"},
		{"-serve 127.0.0.1:39471 -n 150 -budget 60 -journal /tmp/j -seed 42", "serve"},
		{"-connect 127.0.0.1:39471 -conns 2 -pipeline 4 -auctions 4000 -keywords 5 -seed 77", "connect"},
		{"-connect 127.0.0.1:39471 -auctions 2000 -keywords 5 -resets 2 -drain -seed 88", "connect"},
		{"-stream -n 300 -qps 6000 -duration 3s -seed 5 -metrics-addr 127.0.0.1:39581 -trace-sample 16", "stream"},
		{"-engine -broadmatch 1 -squash 1 -reserve 0", "engine"},
		{"-stream -budget 50 -budget-policy PACED -journal j -fsync always -recover", "stream"},
	} {
		_, m, err := parseArgs(strings.Fields(c.args))
		if err != nil || m.name != c.mode {
			t.Errorf("parseArgs(%s) = %s mode, %v; want %s mode", c.args, m.name, err, c.mode)
		}
	}

	// -serve reaches the engine through the one shared config, so it
	// honours -heavy-parallel like every other engine mode.
	o, _, err := parseArgs(strings.Fields("-serve 127.0.0.1:0 -n 20 -method heavy -slots 4 -heavy-parallel 3"))
	if err != nil {
		t.Fatal(err)
	}
	if _, cfg := engineConfig(o, o.keywords, o.auctions); cfg.HeavyParallelism != 3 || cfg.Method != o.method {
		t.Fatalf("serve engine config: HeavyParallelism=%d Method=%v, want 3 and %v", cfg.HeavyParallelism, cfg.Method, o.method)
	}
}
