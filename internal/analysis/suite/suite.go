// Package suite assembles the sitlint analyzer suite: one analyzer
// per cross-package invariant of the engine and the daemon that no
// test pins (DESIGN.md §10).
package suite

import (
	"sitam/internal/analysis"
	"sitam/internal/analysis/ctxflow"
	"sitam/internal/analysis/detmerge"
	"sitam/internal/analysis/fsyncack"
	"sitam/internal/analysis/lockorder"
	"sitam/internal/analysis/metricvocab"
)

// Analyzers returns the full suite in stable order. The fact-based
// analyzers (detmerge, fsyncack, lockorder, metricvocab) propagate
// object facts across packages, so a session must analyze packages in
// dependency order (load.Load returns them that way).
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		detmerge.Analyzer,
		fsyncack.Analyzer,
		lockorder.Analyzer,
		metricvocab.Analyzer,
	}
}
