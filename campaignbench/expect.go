package main

import (
	"fmt"
	"strings"

	"lfi"
	"lfi/internal/callgraph"
)

// recovery is a pinned final recovery coverage: blocks covered of blocks.
type recovery struct{ covered, blocks int }

// expectations are what every pass must reproduce. They are the
// benchmark's own copy of the repository's pinned contract — the
// explorer's final recovery coverage at default flags and the `lfi
// lint` conformance goldens — so a change that makes a campaign faster
// by finding less fails the pass instead of posting a gain.
type expectations struct {
	coverage map[string]recovery
	lint     map[string]callgraph.Counts
}

func defaultExpectations() expectations {
	return expectations{
		coverage: map[string]recovery{
			"minidb":  {16, 16},
			"minidns": {23, 26},
			"minivcs": {20, 24},
			"miniweb": {5, 5},
			"pbft":    {3, 3},
			"raft":    {4, 4},
		},
		lint: map[string]callgraph.Counts{
			"minidb":  {Checked: 15, Partial: 1},
			"minidns": {Checked: 23, Partial: 1, Unchecked: 1, Swallowed: 1},
			"minivcs": {Checked: 18, Partial: 1, Swallowed: 5},
			"miniweb": {Checked: 7, Swallowed: 1},
			"pbft":    {Checked: 3, Swallowed: 3},
			"raft":    {Checked: 3, Swallowed: 4},
		},
	}
}

// checkExplore is the per-explore gate: every stock Table-1 bug was
// rediscovered and the final recovery coverage is the pinned value.
func (e expectations) checkExplore(sys *lfi.System, res *lfi.ExploreResult) error {
	for _, sb := range sys.StockBugs {
		found := false
		for _, b := range res.Bugs {
			if b.IsCrash() && strings.Contains(b.Signature, sb.Match) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s: stock bug %q not rediscovered", sys.Name, sb.Match)
		}
	}
	want, ok := e.coverage[sys.Name]
	if !ok {
		return fmt.Errorf("%s: no pinned recovery coverage", sys.Name)
	}
	if got := (recovery{res.Final.BlocksCovered, res.Final.Blocks}); got != want {
		return fmt.Errorf("%s: recovery coverage %d/%d, pinned %d/%d",
			sys.Name, got.covered, got.blocks, want.covered, want.blocks)
	}
	return nil
}

// checkLint compares a lint report's class tally with the golden.
func (e expectations) checkLint(rep *lfi.LintReport) error {
	want, ok := e.lint[rep.System]
	if !ok {
		return fmt.Errorf("%s: no lint golden", rep.System)
	}
	if rep.Counts != want {
		return fmt.Errorf("%s: lint counts %+v, golden %+v", rep.System, rep.Counts, want)
	}
	return nil
}
