// Command sitlint runs the project's custom static-analysis suite —
// one analyzer per cross-package invariant that no test pins (see
// internal/analysis/... and DESIGN.md §10):
//
//	ctxflow       optimization loops must thread and check context.Context
//	detmerge      parallel reductions merge in deterministic index order
//	fsyncack      journal writes fsync before acknowledgement; durable errors checked
//	lockorder     mutex/flock release discipline and canonical lock ordering
//	metricvocab   /metrics series names come from the closed DESIGN §13 vocabulary
//
// The last four are fact-based: they export object facts (what locks a
// function takes, whether a helper fsyncs, whether its returns stay
// inside the metric vocabulary) that flow to importing packages, so
// cross-package violations surface at the caller.
//
// sitlint takes no flags and no arguments. Run from anywhere inside
// the module, it loads every package of the module and analyzes them
// in one session in dependency order, so every fact exists before a
// caller needs it. Diagnostics go to stdout as
// "file:line:col: analyzer: message", with paths relative to the
// working directory.
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics reported.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"sitam/internal/analysis"
	"sitam/internal/analysis/load"
	"sitam/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "usage: sitlint (no flags or arguments: it analyzes the whole module)")
		return 1
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sitlint:", err)
		return 1
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sitlint:", err)
		return 1
	}
	pkgs, err := load.Load(root, "./...")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sitlint:", err)
		return 1
	}
	session := analysis.NewSession()
	found := 0
	for _, pkg := range pkgs {
		for _, a := range suite.Analyzers() {
			diags, err := analysis.RunSession(session, a, pkg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sitlint:", err)
				return 1
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				name := pos.Filename
				if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
					name = rel
				}
				fmt.Printf("%s:%d:%d: %s: %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message)
			}
			found += len(diags)
		}
	}
	if found > 0 {
		return 2
	}
	return 0
}

// moduleRoot returns the directory of the main module's go.mod.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}
