package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The program and BENCHMARK.json must agree on the workload and metric
// sets, or a driver would ask for a metric the program never prints.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Name != workloadNames[i] || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, specs[i].name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
			if !nameRE.MatchString(want[i].Name) {
				t.Errorf("%s metric name %q is not a legal name", kind, want[i].Name)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// Every workload, shrunk about 500-fold (and to a small population, so
// the many fresh engines of a traced run build quickly), must emit every
// declared metric as a finite number and pass every output check. The
// workload-design checks are about full-size timing shares and are not
// asserted here.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, sp := range specs {
		small := *sp
		small.n = min(sp.n, 200)
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", sp.name, trace), func(t *testing.T) {
				rc := &runCfg{sp: &small, seed: 5, seconds: 20, scale: 1.0 / 500, trace: trace, outDir: t.TempDir(), t0: time.Now()}
				res, err := runChild(rc)
				if err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s not emitted", d.Name)
					} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
						t.Errorf("metric %s = %v %q, want a finite value in %q", d.Name, v.Value, v.Unit, d.Unit)
					}
				}
				if !trace {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
				for _, c := range res.Checks {
					if !c.OK && !c.Design {
						t.Errorf("output check %s failed: %s", c.Name, c.Detail)
					}
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				if trace {
					if _, err := os.Stat(rc.outDir + "/" + sp.name + ".trace.json"); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
			})
		}
	}
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := &hist{}
	vals := make([]float64, 200000)
	for i := range vals {
		// Log-normal around 100us with a heavy tail, like a latency.
		v := int64(1e5 * math.Exp(rng.NormFloat64()*1.5))
		vals[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)-1))]
		if got := h.quantile(q); math.Abs(got-exact) > 0.01*exact {
			t.Errorf("q=%v: histogram %v, exact %v (%.2f%% off)", q, got, exact, 100*math.Abs(got-exact)/exact)
		}
	}
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<41 + 12345} {
		lo, hi := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d lands in bucket [%v, %v)", v, lo, hi)
		}
	}
}

// openLoopUnderStall drives the open loop at 2000 arrivals/s against a
// small stream server. stallConsumer makes each shard's worker sleep
// 20ms once (through the stream Sink, after an auction); stallGenerator
// delays the generator itself by 20ms once.
func openLoopUnderStall(t *testing.T, stallConsumer, stallGenerator bool) loadResult {
	t.Helper()
	sp := *specByName("text_budget_churn")
	sp.n = 64
	const n = 600
	in := makeInputs(&sp, 9, 0, n, 1)
	in.control = nil
	rng := rand.New(rand.NewSource(3))
	for i := range in.texts {
		q := rng.Intn(sp.keywords)
		in.texts[i] = fmt.Sprintf("t%d t%d", q, q+1) // an exact catalog bigram always routes
		in.due[i] = time.Duration(i) * 500 * time.Microsecond
	}
	st := &stack{sp: &sp}
	st.cfg = engineConfig(&sp, in, 0, nil)
	st.cfg.Budget = BudgetConfig{}
	sc := streamConfig(&sp, st.cfg)
	if stallConsumer {
		// The Sink runs on the serving shard's goroutine, after the
		// query's callback; each shard touches only its own entry.
		var served [shards]int
		sc.Sink = func(o *Outcome) {
			s := o.Query % shards
			if served[s]++; served[s] == n/8 {
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
	st.str = newStreamServer(in.inst, sc)
	st.eng = st.str.Engine()
	ol := newOpenLoop(st, in.texts, in.due, nil, nil)
	if stallGenerator {
		ol.beforeSend = func(i int) {
			if i == n/2 {
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
	res := ol.run()
	st.close()
	ol.finish(&res)
	if res.served != n || res.failed() != 0 {
		t.Fatalf("served %d of %d, failed %d", res.served, n, res.failed())
	}
	return res
}

// A consumer stall must show up in latency measured from the due time
// (every query queued behind it is charged), and must not be mistaken
// for generator lateness; a delayed generator must show up in both.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	calm := openLoopUnderStall(t, false, false)
	if got := calm.lat.us(0.99); got > 10000 {
		t.Skipf("host too noisy for timing assertions: undisturbed p99 %.0fus", got)
	}
	consumer := openLoopUnderStall(t, true, false)
	if got := consumer.lat.us(0.99); got < 10000 {
		t.Errorf("20ms consumer stall: due-time latency p99 %.0fus, want >= 10000us (the queries queued behind it)", got)
	}
	if got := consumer.late.us(0.99); got > 5000 {
		t.Errorf("20ms consumer stall: generator lateness p99 %.0fus, want < 5000us (the generator was not delayed)", got)
	}
	generator := openLoopUnderStall(t, false, true)
	if got := generator.late.us(0.99); got < 10000 {
		t.Errorf("20ms generator delay: lateness p99 %.0fus, want >= 10000us", got)
	}
	if got := generator.lat.us(0.99); got < 10000 {
		t.Errorf("20ms generator delay: due-time latency p99 %.0fus, want >= 10000us (lateness is charged to the query)", got)
	}
}
