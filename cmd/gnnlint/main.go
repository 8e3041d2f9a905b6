// Command gnnlint is scalegnn's project-specific static analyzer. It
// enforces the nine resource-lifetime, concurrency, durability and
// determinism invariants the training and serving stack depends on — see
// DESIGN.md "Enforced invariants" for the list and internal/lint for the
// implementation.
//
// Usage:
//
//	gnnlint ./...                      # run every check over the module
//	gnnlint ./internal/tensor          # one package
//	gnnlint -checks naked-go,global-rand ./...
//	gnnlint -list                      # describe the checks
//
// Exit status is 1 when findings are reported, 2 on usage or load errors.
// Suppress a single finding with `//lint:ignore <check> <reason>` on the
// offending line or the line above; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scalegnn/internal/lint"
)

func main() {
	var (
		checks = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		list   = flag.Bool("list", false, "list available checks and exit")
	)
	flag.Parse()

	cwd, err := os.Getwd()
	if err != nil {
		fatal("%v", err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal("%v", err)
	}
	if *list {
		for _, c := range lint.Checks(loader.ModPath) {
			fmt.Printf("%-16s %s\n", c.Name, c.Doc)
		}
		return
	}

	dirs, err := loader.ExpandPatterns(flag.Args())
	if err != nil {
		fatal("%v", err)
	}
	var pkgs []*lint.Package
	for _, dir := range dirs {
		p, err := loader.LoadDir(dir)
		if err != nil {
			fatal("%v", err)
		}
		pkgs = append(pkgs, p)
	}

	var names []string
	if *checks != "" {
		for _, n := range strings.Split(*checks, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	diags, err := lint.RunChecks(loader, pkgs, names)
	if err != nil {
		fatal("%v", err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "gnnlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gnnlint: "+format+"\n", args...)
	os.Exit(2)
}
