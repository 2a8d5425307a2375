package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lfi"
	"lfi/internal/callgraph"
	"lfi/internal/coverage"
	"lfi/internal/explore"
	"lfi/internal/system"
)

// timedExec decorates the Executor a session dispatches through. It is
// installed on every pass, traced or not, because time_to_bugs_cpu_s
// needs the CPU clock at the moment a batch hands back a stock bug; its
// per-batch cost is two wall-clock reads and a scan of the batch's
// failure signatures, plus a CPU-clock read when a stock bug is new.
//
// busy is the wall time during which at least one batch is in flight —
// the union of the batch intervals, so concurrent batches are not
// double counted and busy always nests inside the campaign time.
type timedExec struct {
	lfi.Executor
	stock map[string][]string // system -> stock bug signature substrings

	mu       sync.Mutex
	inflight int
	since    time.Time
	busy     time.Duration
	batches  int
	runs     int
	found    map[bugKey]time.Duration // CPU clock at the first return of each stock bug
}

type bugKey struct{ system, match string }

func newTimedExec(inner lfi.Executor, systems []*lfi.System) *timedExec {
	t := &timedExec{Executor: inner, stock: make(map[string][]string), found: make(map[bugKey]time.Duration)}
	for _, s := range systems {
		for _, sb := range s.StockBugs {
			t.stock[s.Name] = append(t.stock[s.Name], sb.Match)
		}
	}
	return t
}

// Run times the batch and stamps the stock bugs its outcomes carry.
func (t *timedExec) Run(ctx context.Context, b *lfi.ExecBatch) ([]*lfi.ExecOutcome, error) {
	t.mu.Lock()
	if t.inflight == 0 {
		t.since = time.Now()
	}
	t.inflight++
	t.mu.Unlock()

	outs, err := t.Executor.Run(ctx, b)

	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inflight--
	if t.inflight == 0 {
		t.busy += now.Sub(t.since)
	}
	t.batches++
	t.runs += len(outs)
	var cpu time.Duration // read once, when the batch carries a new stock bug
	for _, o := range outs {
		if o == nil || o.Signature == "" || !(lfi.Bug{Signature: o.Signature}).IsCrash() {
			continue
		}
		for _, m := range t.stock[b.System] {
			k := bugKey{b.System, m}
			if _, seen := t.found[k]; !seen && strings.Contains(o.Signature, m) {
				if cpu == 0 {
					cpu = cpuTime()
				}
				t.found[k] = cpu
			}
		}
	}
	return outs, err
}

// Pipeline, ImageVersion and FuncFingerprints forward the optional
// capabilities the session's scheduler probes for, so the decorator
// leaves pipelining and mixed-build handling exactly as they were.
func (t *timedExec) Pipeline() int {
	if p, ok := t.Executor.(interface{ Pipeline() int }); ok {
		return p.Pipeline()
	}
	return 1
}

func (t *timedExec) ImageVersion(sys string) string {
	if i, ok := t.Executor.(interface{ ImageVersion(string) string }); ok {
		return i.ImageVersion(sys)
	}
	return ""
}

func (t *timedExec) FuncFingerprints(sys string) (map[string]string, error) {
	if i, ok := t.Executor.(interface {
		FuncFingerprints(string) (map[string]string, error)
	}); ok {
		return i.FuncFingerprints(sys)
	}
	return nil, nil
}

// busyTotal is the accumulated busy time; call it between batches.
func (t *timedExec) busyTotal() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.busy
}

func (t *timedExec) counts() (batches, runs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.batches, t.runs
}

// lastBug is the CPU clock when the batch returning sys's last stock
// bug finished; ok is false while any stock bug is still missing.
func (t *timedExec) lastBug(sys string) (last time.Duration, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.stock[sys] {
		at, seen := t.found[bugKey{sys, m}]
		if !seen {
			return 0, false
		}
		last = max(last, at)
	}
	return last, true
}

// ctrlTimer is the controller-layer probe of traced passes: installed
// through system.Replace, it wraps every descriptor's Start and the
// workload Start returns, so each in-process test run reports the time
// spent staging the process image and running the workload under
// injection. Workers run concurrently, so busy is summed across them.
type ctrlTimer struct {
	busy atomic.Int64 // nanoseconds
	runs atomic.Int64
	orig []*lfi.System
}

// installCtrlTimer replaces the named systems' registry entries with
// timed copies; uninstall restores the originals.
func installCtrlTimer(names []string) (*ctrlTimer, error) {
	c := &ctrlTimer{}
	for _, n := range names {
		d, ok := system.Lookup(n)
		if !ok {
			c.uninstall()
			return nil, fmt.Errorf("system %q is not registered", n)
		}
		c.orig = append(c.orig, d)
		nd := *d
		nd.Target = func() lfi.Target { return c.wrap(d.Target()) }
		nd.TargetWithCoverage = func(tr *coverage.Tracker) lfi.Target { return c.wrap(d.TargetWithCoverage(tr)) }
		if err := system.Replace(&nd); err != nil {
			c.uninstall()
			return nil, err
		}
	}
	return c, nil
}

func (c *ctrlTimer) uninstall() {
	for _, d := range c.orig {
		_ = system.Replace(d) // d came from the registry under this name
	}
}

func (c *ctrlTimer) wrap(t lfi.Target) lfi.Target {
	start := t.Start
	t.Start = func() (*lfi.Process, func() error) {
		t0 := time.Now()
		proc, workload := start()
		c.busy.Add(int64(time.Since(t0)))
		c.runs.Add(1)
		return proc, func() error {
			t1 := time.Now()
			// Deferred: a simulated crash unwinds the workload as a panic.
			defer func() { c.busy.Add(int64(time.Since(t1))) }()
			return workload()
		}
	}
	return t
}

// probeReps is how often each standalone probe repeats (median kept).
const probeReps = 5

// layers fills res with the per-layer metrics of a traced run: medians
// over the traced passes, the standalone probes, the tracing overhead
// against the interleaved untraced passes, and the layer-sum check.
func (b *bench) layers(w workload, res *result, plain, traced []*passStats, out io.Writer) error {
	med := func(f func(*passStats) float64) float64 { return median(traced, f) }
	res.set("controller.busy_s", med(func(s *passStats) float64 { return s.ctrlBusy.Seconds() }), "s")
	res.set("controller.us_per_run", med(func(s *passStats) float64 { return perRunUS(s.ctrlBusy, int(s.ctrlRuns)) }), "us")
	res.set("exec.busy_s", med(func(s *passStats) float64 { return s.execBusy.Seconds() }), "s")
	res.set("exec.batches", med(func(s *passStats) float64 { return float64(s.batches) }), "count")
	res.set("exec.runs", med(func(s *passStats) float64 { return float64(s.runs) }), "count")
	res.set("exec.us_per_run", med(func(s *passStats) float64 { return perRunUS(s.execBusy, s.runs) }), "us")
	res.set("explore.self_s", med(func(s *passStats) float64 { return s.self.Seconds() }), "s")
	for _, name := range systemNames {
		res.set(name+".campaign_s", med(func(s *passStats) float64 { return s.sysWall[name].Seconds() }), "s")
		res.set(name+".runs", med(func(s *passStats) float64 { return float64(s.sysRuns[name]) }), "count")
	}
	// Pass k of each kind ran back to back on the same edit: comparing
	// them pair by pair keeps the machine's slow drift out of the overhead.
	ratios := make([]float64, len(traced))
	for k, t := range traced {
		ratios[k] = (float64(t.cpu)/float64(plain[k].cpu) - 1) * 100
	}
	res.set("trace.overhead_pct", medianOf(ratios), "%")
	res.set("campaign.wall_s", median(plain, func(s *passStats) float64 { return s.wall.Seconds() }), "s")
	res.set("layer.residual_s", med(func(s *passStats) float64 { return s.residual().Seconds() }), "s")

	// The layer-sum check, on the traced pass of median wall time.
	sorted := append([]*passStats(nil), traced...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].wall < sorted[j].wall })
	p := sorted[len(sorted)/2]
	fmt.Fprintf(out, "layer-sum check: exec.busy_s %.4f + explore.self_s %.4f + edit.lint_s %.4f = %.4f s of its wall time %.4f s; residual %.4f s (%.2f%%)\n",
		p.execBusy.Seconds(), p.self.Seconds(), p.lint.Seconds(), (p.execBusy + p.self + p.lint).Seconds(),
		p.wall.Seconds(), p.residual().Seconds(), 100*p.residual().Seconds()/p.wall.Seconds())
	fmt.Fprintln(out, "  not split further: store persist is inside explore.self_s")

	return b.probes(w, res, traced)
}

// residual is the pass time outside every timed layer: the benchmark's
// own loop and, on edit-loop, building the patched descriptors.
func (s *passStats) residual() time.Duration { return s.wall - s.execBusy - s.self - s.lint }

func perRunUS(busy time.Duration, runs int) float64 {
	if runs == 0 {
		return 0
	}
	return float64(busy.Microseconds()) / float64(runs)
}

// probes times standalone calls into single layers on the workload's
// own inputs: candidate generation, the interprocedural analysis, store
// load, and the change-impact diff, each over every system of the
// workload against a fixpoint store of those systems (edit-loop's own;
// built here for cold). The edit.* metrics come from edit-loop's traced
// passes; cold has no incremental loop and reports them as 0.
func (b *bench) probes(w workload, res *result, traced []*passStats) error {
	ew, isEdit := w.(*editWork)
	if !isEdit {
		dir := filepath.Join(b.work, "probe-fix")
		if err := buildFixpoint(b, dir); err != nil {
			return fmt.Errorf("probe store: %w", err)
		}
		var err error
		// Only the store and the seeded edit order are used: no pass runs.
		if ew, err = newEditWork(b, dir, ""); err != nil {
			return err
		}
	}
	dir := ew.fix
	var cfgs []lfi.ExploreConfig
	for _, sys := range b.systems() {
		cfgs = append(cfgs, explore.ConfigForSystem(sys))
	}

	candidates := 0
	res.set("explore.generate_s", timeMedian(func() {
		candidates = 0
		for _, cfg := range cfgs {
			candidates += len(lfi.GenerateCandidates(cfg))
		}
	}), "s")
	res.set("explore.candidates", float64(candidates), "count")
	res.set("callgraph.analyze_s", timeMedian(func() {
		for _, cfg := range cfgs {
			callgraph.AnalyzeIncremental(cfg.Binary, cfg.Profiles, nil)
		}
	}), "s")
	var loadErr error
	res.set("explore.load_s", timeMedian(func() {
		for _, cfg := range cfgs {
			if _, err := explore.LoadStore(dir, cfg.System, explore.ImageVersion(cfg.Binary)); err != nil {
				loadErr = err
			}
		}
	}), "s")
	if loadErr != nil {
		return fmt.Errorf("load probe: %w", loadErr)
	}

	sess, err := lfi.NewSession(lfi.WithWorkers(workers), lfi.WithSeed(b.opt.seed), lfi.WithStore(dir))
	if err != nil {
		return err
	}
	// Diff every system, each under the first edit the seed orders for it.
	var edited []*lfi.System
	for _, sys := range b.systems() {
		for _, e := range ew.edits {
			if e.system == sys.Name {
				psys, err := lfi.PatchSystem(sys, e.fn)
				if err != nil {
					return err
				}
				edited = append(edited, psys)
				break
			}
		}
	}
	var diffErr error
	res.set("impact.diff_s", timeMedian(func() {
		for _, psys := range edited {
			if _, err := sess.Diff(psys); err != nil {
				diffErr = err
			}
		}
	}), "s")
	if diffErr != nil {
		return fmt.Errorf("diff probe: %w", diffErr)
	}

	var edits []*passStats
	if isEdit {
		edits = traced
	}
	res.set("edit.resume_s", median(edits, func(s *passStats) float64 { return s.resume.Seconds() }), "s")
	res.set("edit.impact_s", median(edits, func(s *passStats) float64 { return s.impact.Seconds() }), "s")
	res.set("edit.lint_s", median(edits, func(s *passStats) float64 { return s.lint.Seconds() }), "s")
	res.set("edit.resume_runs", median(edits, func(s *passStats) float64 { return float64(s.resumeRuns) }), "count")
	res.set("edit.impact_runs", median(edits, func(s *passStats) float64 { return float64(s.impactRuns) }), "count")
	return nil
}

// timeMedian is the median wall time of probeReps calls of f.
func timeMedian(f func()) float64 {
	ts := make([]float64, probeReps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0).Seconds()
	}
	return medianOf(ts)
}
