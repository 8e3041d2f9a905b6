// Command graphgen generates synthetic graphs to edge-list files.
//
// Usage:
//
//	graphgen -kind ba -n 100000 -deg 8 -out graph.el
//	graphgen -kind sbm -n 50000 -blocks 8 -deg 12 -homophily 0.8 -out sbm.el
//	graphgen -kind er -n 10000 -edges 50000 -out er.el
//	graphgen -kind grid -rows 100 -cols 100 -out grid.el
//
// For SBM graphs, block labels are written alongside as <out>.labels (one
// integer per line).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"scalegnn/internal/graph"
	"scalegnn/internal/tensor"
)

func main() {
	var (
		kind      = flag.String("kind", "ba", "graph kind: ba | er | sbm | grid | path")
		n         = flag.Int("n", 10000, "node count (ba, er, sbm, path)")
		deg       = flag.Int("deg", 8, "attachment degree (ba) / average degree (sbm)")
		edges     = flag.Int("edges", 0, "edge count (er); default 4n")
		blocks    = flag.Int("blocks", 4, "community count (sbm)")
		homophily = flag.Float64("homophily", 0.8, "intra-community edge fraction (sbm)")
		rows      = flag.Int("rows", 100, "grid rows")
		cols      = flag.Int("cols", 100, "grid cols")
		seed      = flag.Uint64("seed", 42, "random seed")
		out       = flag.String("out", "", "output path (default stdout)")
	)
	flag.Parse()

	// Reject sizes the generators would clamp (ba, er) or panic on (path,
	// er) rather than write a graph of another size.
	switch {
	case *kind == "grid" && (*rows < 1 || *cols < 1):
		fatal("-rows %d -cols %d: grid needs at least one row and one column", *rows, *cols)
	case *kind != "grid" && *n < 1:
		fatal("-n %d: need at least one node", *n)
	case *kind == "ba" && (*deg < 1 || *deg >= *n):
		fatal("-deg %d: attachment degree must be in [1, n=%d)", *deg, *n)
	case *kind == "er" && (*edges < 0 || *edges > *n*(*n-1)/2):
		fatal("-edges %d: edge count must be in [0, n(n-1)/2=%d]", *edges, *n*(*n-1)/2)
	}

	rng := tensor.NewRand(*seed)
	var g *graph.CSR
	var labels []int
	switch *kind {
	case "ba":
		g = graph.BarabasiAlbert(*n, *deg, rng)
	case "er":
		m := *edges
		if m == 0 {
			m = 4 * *n
		}
		g = graph.ErdosRenyi(*n, m, rng)
	case "sbm":
		var err error
		g, labels, err = graph.SBM(graph.SBMConfig{
			Nodes: *n, Blocks: *blocks, AvgDegree: float64(*deg), Homophily: *homophily,
		}, rng)
		if err != nil {
			fatal("sbm: %v", err)
		}
	case "grid":
		g = graph.Grid(*rows, *cols)
	case "path":
		g = graph.Path(*n)
	default:
		fatal("unknown kind %q", *kind)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("create %s: %v", *out, err)
		}
		w = f
	}
	if err := graph.WriteEdgeList(w, g); err != nil {
		fatal("write: %v", err)
	}
	// These files were written to, so a failed Close can mean lost data —
	// check it instead of deferring it away.
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			fatal("close %s: %v", *out, err)
		}
	}
	if labels != nil && *out != "" {
		lf, err := os.Create(*out + ".labels")
		if err != nil {
			fatal("create labels: %v", err)
		}
		bw := bufio.NewWriter(lf)
		for _, y := range labels {
			//lint:ignore unchecked-error bufio latches the first write error; the Flush below reports it
			fmt.Fprintln(bw, y)
		}
		if err := bw.Flush(); err != nil {
			fatal("write labels: %v", err)
		}
		if err := lf.Close(); err != nil {
			fatal("close labels: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "graphgen: %s graph, n=%d arcs=%d\n", *kind, g.N, g.NumEdges())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphgen: "+format+"\n", args...)
	os.Exit(1)
}
