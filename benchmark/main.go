// Command benchmark is the repo benchmark: five workloads over the
// program's public entry points, seven end-to-end metrics measured with
// tracing off, and a traced run that attributes time to layers from
// outside. See README.md and BENCHMARK.json.
//
//	bash benchmark/run.sh --workload fullbatch_gcn --seed 42 --seconds 12 --trace 0
//	bash benchmark/run.sh -all -seed 42 -out results.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line: the last line of a run's standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload: "+workloadNames())
		seed     = flag.Uint64("seed", 42, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "run length; epoch counts and the serving phase scale with it")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		tmp      = flag.String("tmp", "", "directory for generated inputs and sockets (default: the system temp dir)")
		spansOut = flag.String("spans-out", "", "traced run: write the benchmark's own spans here as JSONL")
		all      = flag.Bool("all", false, "run every workload, untraced then traced, each in a fresh subprocess")
		repeats  = flag.Int("repeats", 5, "-all: untraced runs per workload (-compare needs at least 4 for its quartiles)")
		out      = flag.String("out", "", "-all: write the result set here")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		emit     = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric catalog")
	)
	flag.Parse()

	switch {
	case *emit:
		doc, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1)))
	}

	if *seconds < minSeconds {
		fatal(fmt.Errorf("-seconds %v: want >= %d, so each half of a traced serving phase holds a whole swap period", *seconds, minSeconds))
	}
	if *all {
		if *repeats < 1 {
			fatal(fmt.Errorf("-repeats %d: want >= 1", *repeats))
		}
		os.Exit(runAll(*seed, *seconds, *repeats, *tmp, *out))
	}

	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown -workload %q (want one of %s)", *name, workloadNames()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	res, failures, err := runWorkload(w, *seed, *seconds, *trace == 1, false, *tmp, *spansOut)
	if err != nil {
		fatal(err)
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: output check failed: %s\n", w.Name, f)
	}
	printTable(os.Stdout, w.Name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, " | ")
}

// runWorkload runs one workload in this process and renders its result.
// Generated inputs live in a fresh directory under tmp and are removed
// before it returns. smoke shrinks every size for the schema test; the
// accuracy floors do not apply to it.
func runWorkload(w *workload, seed uint64, seconds float64, traced, smoke bool, tmp, spansOut string) (*outcome, []string, error) {
	if tmp != "" {
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, nil, err
		}
	}
	dir, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	runtime.GOMAXPROCS(w.procs())
	e := &env{w: w, seed: seed, traced: traced, smoke: smoke, dir: dir, sz: sizesFor(w, seconds, smoke)}
	if traced {
		e.rec = newRecorder(w.Name)
	}
	var m *measured
	switch w.Kind {
	case "train":
		m, err = runTrain(e)
	case "serve":
		m, err = runServe(e)
	case "dist":
		m, err = runDist(e)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if traced && spansOut != "" {
		if err := e.rec.writeJSONL(spansOut); err != nil {
			return nil, nil, fmt.Errorf("spans: %w", err)
		}
	}

	res := &outcome{Correct: len(m.failures) == 0, Attempted: m.attempted, Metrics: map[string]metricValue{}}
	if !res.Correct {
		res.Failed = m.attempted // a failed output check fails every op of the run
	}
	if w.Kind != "serve" { // an epoch has no latency limit: ok unless failed
		m.e2e["slo_ok_frac"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
	}
	defs, vals := endToEnd, m.e2e
	if traced {
		defs, vals = perLayer, m.layer
	}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("%s: metric %s is %v", w.Name, d.Name, v)
		}
		if !traced && v == 0 && res.Correct {
			return nil, nil, fmt.Errorf("%s: end-to-end metric %s was not measured", w.Name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, m.failures, nil
}

// printTable writes every metric by name with its unit, one per line.
func printTable(f *os.File, workload string, res *outcome) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "# %s  correct=%t attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(f, "%-34s %14.6g %s\n", n, v.Value, v.Unit)
	}
}
