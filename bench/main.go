// Command bench is the repository's benchmark: four serving workloads
// driven from outside through the program's public entry points, six
// end-to-end metrics per workload, and a traced run that attributes
// the end-to-end time to the layers under it. See README.md.
//
//	go run . [-workload name] [-seed N] [-seconds S] [-trace 0|1] [-repeat K]
//
// With -workload it performs one run of that workload and prints, as
// the last line of standard output, one JSON object {correct,
// attempted, failed, metrics}: the end-to-end metrics with -trace 0,
// the per-layer metrics with -trace 1. Without -workload it runs every
// workload both ways and exits non-zero if any check fails. Every run
// executes in a freshly started child process, so resident memory, heap
// and GC state never leak from one run into the next.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// setupReps is how many times a timed run sets the workload up (each in
// its own child); setup_s is the median.
const setupReps = 5

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four, timed and traced)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 25, "nominal length of the timed window; fixes the operation counts")
		trace    = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		repeat   = flag.Int("repeat", 0, "noise mode: run K full sets, print each end-to-end metric's spread beside its bound, append to baseline.json")
		outDir   = flag.String("out", "out", "directory for trace files and temporary journals")
		child    = flag.String("child", "", "internal: run in this process as a child (full or setup)")
		t0       = flag.Int64("t0", 0, "internal: unix nanoseconds at which the parent started this child")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *repeat < 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *child != "" {
		sp := specByName(*workload)
		if sp == nil {
			fatalf("unknown workload %q", *workload)
		}
		rc := &runCfg{sp: sp, seed: *seed, seconds: *seconds, scale: 1, trace: *trace == 1,
			setupOnly: *child == "setup", outDir: *outDir, t0: time.Unix(0, *t0), log: os.Stderr}
		res, err := runChild(rc)
		if err != nil {
			fatalf("%s: %v", sp.name, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%v", err)
		}
		return
	}

	p := &parent{seed: *seed, seconds: *seconds, outDir: *outDir}
	switch {
	case *repeat > 0:
		os.Exit(p.repeat(*repeat))
	case *workload != "":
		if specByName(*workload) == nil {
			fatalf("unknown workload %q (have %v)", *workload, workloadNames)
		}
		res, err := p.run(*workload, *trace == 1)
		if err != nil {
			fatalf("%v", err)
		}
		printResult(res)
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		printDriverLine(res, defs)
	default:
		os.Exit(p.all())
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// parent starts the children and reports what they measured.
type parent struct {
	seed    int64
	seconds float64
	outDir  string
}

// spawn re-executes this binary as one child and decodes its result.
func (p *parent) spawn(workload, mode string, trace bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe,
		"-child", mode, "-workload", workload, "-trace", tr,
		"-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64),
		"-out", p.outDir,
		"-t0", strconv.FormatInt(time.Now().UnixNano(), 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child (%s): %w", workload, mode, err)
	}
	res := &result{}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("%s child (%s): bad result: %w", workload, mode, err)
	}
	return res, nil
}

// run performs one run of a workload. A timed run sets the workload up
// setupReps times, each in a fresh child, and reports the median
// set-up time; only the last child goes on to the timed window.
func (p *parent) run(workload string, trace bool) (*result, error) {
	var setups []float64
	if !trace {
		for i := 1; i < setupReps; i++ {
			res, err := p.spawn(workload, "setup", false)
			if err != nil {
				return nil, err
			}
			setups = append(setups, res.Metrics["setup_s"].Value)
		}
	}
	res, err := p.spawn(workload, "full", trace)
	if err != nil {
		return nil, err
	}
	if !trace {
		setups = append(setups, res.Metrics["setup_s"].Value)
		res.Metrics.put(endToEnd, "setup_s", median(setups), len(setups))
	}
	return res, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func (r *result) correct() bool { return r.Checks.failedOutput() == 0 }

// printResult prints every metric as "workload metric value unit", the
// self-time table of a traced run, and the checks.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		line := fmt.Sprintf("%s %s %.6g %s", res.Workload, name, v.Value, v.Unit)
		if v.Samples > 0 {
			line += fmt.Sprintf(" (n=%d)", v.Samples)
		}
		fmt.Println(line)
	}
	if len(res.Table) > 0 {
		fmt.Printf("%s self time per sequential call (loopback TCP in one process, not a real link):\n", res.Workload)
		for _, row := range res.Table {
			fmt.Printf("%s   %-58s %9.2f us %5.1f%%\n", res.Workload, row.Layer, row.US, 100*row.Share)
		}
	}
	for _, c := range res.Checks {
		kind, verdict := "check", "ok"
		if c.Design {
			kind = "design-check"
		}
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Printf("%s %s %s %s: %s\n", res.Workload, kind, c.Name, verdict, c.Detail)
	}
}

// printDriverLine prints the one JSON object a driver reads from the
// last line: exactly the declared metrics, each with value and unit.
func printDriverLine(res *result, defs []metricDef) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]vu{}
	for _, d := range defs {
		metrics[d.Name] = vu{res.Metrics[d.Name].Value, d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct(),
		"attempted": max(1, res.Attempted),
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// all runs every workload, timed then traced, and returns the exit
// code: non-zero when any output check or workload-design check fails.
func (p *parent) all() int {
	code := 0
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := p.run(name, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			printResult(res)
			for _, c := range res.Checks {
				if !c.OK {
					code = 1
				}
			}
		}
	}
	return code
}
