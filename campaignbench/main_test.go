package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"lfi/internal/callgraph"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// smoke runs one short run: a single set-up, then the fewest passes a
// run can make (one cycle of edits on edit-loop).
func smoke(t *testing.T, workload string, trace bool, exp expectations) *result {
	t.Helper()
	opt := options{workload: workload, seed: 7, trace: trace, work: t.TempDir(), setupReps: 1}
	res, err := run(opt, exp, io.Discard, os.Stderr)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res
}

// TestSmoke makes the shortest run of every workload, untraced and traced,
// and checks that every metric BENCHMARK.json names is emitted with its
// unit, and nothing else, and that every pass passed the gate.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	for _, wl := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			res := smoke(t, wl.Name, trace, defaultExpectations())
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestGateRejectsWrongExpectation checks that the gate fails every pass
// when an expectation is deliberately wrong.
func TestGateRejectsWrongExpectation(t *testing.T) {
	wrongCoverage := defaultExpectations()
	wrongCoverage.coverage["miniweb"] = recovery{4, 5}
	wrongLint := defaultExpectations()
	wrongLint.lint["miniweb"] = callgraph.Counts{Checked: 8, Swallowed: 1}
	for _, c := range []struct {
		workload string
		exp      expectations
	}{{"cold", wrongCoverage}, {"edit-loop", wrongLint}} {
		res := smoke(t, c.workload, false, c.exp)
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%v, %d of %d passes failed; want every pass to fail the gate",
				c.workload, res.Correct, res.Failed, res.Attempted)
		}
	}
}
