// Command gnnbench runs the reproduction experiments (F1, E1–E21 from
// DESIGN.md) and prints their tables.
//
// Usage:
//
//	gnnbench                  # run everything at full scale
//	gnnbench -run E5,E12      # run selected experiments
//	gnnbench -quick           # shrunken workloads (~seconds each)
//	gnnbench -list            # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"scalegnn/internal/bench"
	"scalegnn/internal/obs"
	"scalegnn/internal/par"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

func main() {
	var (
		runList     = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		quick       = flag.Bool("quick", false, "run shrunken workloads")
		list        = flag.Bool("list", false, "list experiments and exit")
		seed        = flag.Uint64("seed", 42, "base random seed")
		traceOut    = flag.String("trace-out", "", "write the span timeline to this file as JSONL")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus) and pprof on this address (e.g. localhost:6060)")
		pprofOut    = flag.String("pprof", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s §%-6s %s\n", e.ID, e.Anchor, e.Title)
		}
		return
	}

	sess, err := obs.StartSession(obs.Options{
		TraceOut: *traceOut, MetricsAddr: *metricsAddr, CPUProfile: *pprofOut,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gnnbench: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "gnnbench: observability teardown: %v\n", err)
		}
	}()
	if sess.Registry != nil {
		tensor.EnablePoolMetrics(sess.Registry)
		par.EnableMetrics(sess.Registry)
		train.EnableMetrics(sess.Registry)
	}
	if addr := sess.Addr(); addr != "" {
		fmt.Printf("metrics: http://%s/metrics  pprof: http://%s/debug/pprof/\n", addr, addr)
	}

	var selected []bench.Experiment
	if *runList == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.Get(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "gnnbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed}
	failed := 0
	for _, e := range selected {
		start := time.Now()
		// One span per experiment, labeled by ID, so a traced benchmark run
		// shows which experiment owns each stretch of the timeline.
		sp := obs.Start("bench.experiment")
		sp.SetLabel(e.ID)
		tbl, err := e.Run(cfg)
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gnnbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "gnnbench: writing %s table: %v\n", e.ID, err)
			failed++
			break
		}
		fmt.Printf("  (%s in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		// os.Exit skips the deferred teardown; flush the trace first.
		if err := sess.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "gnnbench: observability teardown: %v\n", err)
		}
		os.Exit(1)
	}
}
