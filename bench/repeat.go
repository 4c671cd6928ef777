package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"
)

// baselineFile is the trajectory of recorded runs: -repeat appends one
// entry per invocation and never rewrites an earlier one.
const baselineFile = "baseline.json"

// baselineMetric is an end-to-end metric over the repeated runs:
// Spread is (max−min)/median, judged against the metric's bound.
type baselineMetric struct {
	Median float64 `json:"median"`
	Spread float64 `json:"spread"`
}

// baselineEntry holds medians only; units and bounds are in metrics.go
// and BENCHMARK.json.
type baselineEntry struct {
	Entry   int            `json:"entry"`
	Time    string         `json:"time"`
	Seed    int64          `json:"seed"`
	Seconds float64        `json:"seconds"`
	Repeat  int            `json:"repeat"`
	Host    map[string]any `json:"host"`
	// Claim names the metric × workload a change says it improved; the
	// benchmark's own entries claim nothing.
	Claim    any                                  `json:"claim"`
	EndToEnd map[string]map[string]baselineMetric `json:"end_to_end"` // workload → metric
	PerLayer map[string]map[string]float64        `json:"per_layer"`  // workload → metric → median
}

type baselineDoc struct {
	Entries []baselineEntry `json:"entries"`
}

// repeat is the noise mode: k full sets of runs (every workload, timed
// and traced), each end-to-end metric's relative spread printed beside
// its bound, and the medians appended to baseline.json. It returns the
// exit code: non-zero when a spread exceeds its bound or an output check
// fails (a failed workload-design check is printed, no more).
func (p *parent) repeat(k int) int {
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	code := 0
	for set := 0; set < k; set++ {
		for _, name := range workloadNames {
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, trace := range []bool{false, true} {
				res, err := p.run(name, trace)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				fmt.Printf("set %d/%d %s trace=%v: attempted %d failed %d\n", set+1, k, name, trace, res.Attempted, res.Failed)
				for metric, v := range res.Metrics {
					values[name][metric] = append(values[name][metric], v.Value)
				}
				for _, c := range res.Checks {
					if !c.OK {
						fmt.Printf("%s check %s FAILED: %s\n", name, c.Name, c.Detail)
						if !c.Design {
							code = 1
						}
					}
				}
			}
		}
	}

	entry := baselineEntry{
		Time: time.Now().UTC().Format(time.RFC3339), Seed: p.seed, Seconds: p.seconds, Repeat: k,
		Host:     hostFingerprint(),
		EndToEnd: map[string]map[string]baselineMetric{}, PerLayer: map[string]map[string]float64{},
	}
	for _, name := range workloadNames {
		entry.EndToEnd[name], entry.PerLayer[name] = map[string]baselineMetric{}, map[string]float64{}
		for _, d := range perLayer {
			entry.PerLayer[name][d.Name] = median(values[name][d.Name])
		}
		for _, d := range endToEnd {
			vs := values[name][d.Name]
			lo, hi := vs[0], vs[0]
			for _, v := range vs {
				lo, hi = min(lo, v), max(hi, v)
			}
			med := median(vs)
			spread := 0.0
			if med != 0 {
				spread = (hi - lo) / med
			}
			verdict := "within"
			if spread > d.Bound {
				verdict = "EXCEEDS"
				code = 1
			}
			fmt.Printf("%s %s median %.6g %s spread %.4f %s bound %.3f\n", name, d.Name, med, d.Unit, spread, verdict, d.Bound)
			entry.EndToEnd[name][d.Name] = baselineMetric{Median: med, Spread: spread}
		}
	}
	if err := appendBaseline(entry); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return code
}

func appendBaseline(entry baselineEntry) error {
	var doc baselineDoc
	b, err := os.ReadFile(baselineFile)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &doc); err != nil {
			return fmt.Errorf("%s: %w", baselineFile, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	entry.Entry = len(doc.Entries)
	doc.Entries = append(doc.Entries, entry)
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(baselineFile, append(out, '\n'), 0o644)
}
