// Command campaignbench is the repository's campaign benchmark. It
// drives whole fault-injection campaigns through the public lfi Session
// API, from outside the module's packages, and reports what a user of
// the tool pays for one: CPU time, CPU time until the stock bugs are
// back, memory allocated and resident. Timings are CPU time, not wall
// time, because on a shared host a virtual CPU taken away by the
// hypervisor stretches wall time by whatever the neighbours do, while
// the kernel does not charge the process for it. See README.md for the
// workloads, the metrics and how the layers map onto them.
//
//	campaignbench -workload cold|edit-loop -seed N -seconds S -trace 0|1
//
// A run sets up its workload several times (each setup ends with one
// warm-up pass) and reports the median setup, then repeats whole passes
// for -seconds (on edit-loop, up to the end of a whole cycle of edits)
// and reports the median pass. Every pass checks its own
// output; a pass that fails the check counts as a failed operation.
// With -trace 1 the passes alternate between untraced and traced ones
// and the run reports per-layer metrics instead of end-to-end ones. The
// last line of standard output is the result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lfi"
	"lfi/internal/system"
)

// options are the command-line knobs.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	work      string // scratch root; the run's files live in a fresh directory under it
	setupReps int    // set-ups per run; setup_s is their median
}

// setupReps is how often a run sets up its workload.
const setupReps = 5

type bench struct {
	opt  options
	exp  expectations
	work string // this run's scratch directory
}

// cpuTime is the CPU time, user plus system over all threads, this
// process has used so far; every timing a run reports end to end is a
// difference of two readings. The kernel charges a process only for
// the time its threads actually ran, so time the hypervisor took from
// the virtual CPUs is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// systems returns the workload's systems as currently registered —
// timed copies while a traced pass runs.
func (b *bench) systems() []*lfi.System {
	out := make([]*lfi.System, 0, len(systemNames))
	for _, n := range systemNames {
		if d, ok := system.Lookup(n); ok {
			out = append(out, d)
		}
	}
	return out
}

// passStats is one pass's measurements.
type passStats struct {
	cpu, ttb                         time.Duration // CPU time
	wall, self, lint, resume, impact time.Duration // wall time
	alloc                            uint64
	te                               *timedExec
	execBusy                         time.Duration
	batches, runs                    int
	resumeRuns, impactRuns           int
	ctrlBusy                         time.Duration
	ctrlRuns                         int64
	sysWall                          map[string]time.Duration
	sysRuns                          map[string]int
	gate                             error // correctness-gate failure
}

func newPassStats() *passStats {
	return &passStats{sysWall: make(map[string]time.Duration), sysRuns: make(map[string]int)}
}

// useExec wraps the pass's executor in the timing decorator.
func (st *passStats) useExec(inner lfi.Executor, systems []*lfi.System) *timedExec {
	st.te = newTimedExec(inner, systems)
	return st.te
}

// explore runs one Explore, charging its wall time to the system and
// the part not spent waiting on the executor to explore.self.
func (st *passStats) explore(sess *lfi.Session, sys *lfi.System) (*lfi.ExploreResult, error) {
	busy0 := st.te.busyTotal()
	t0 := time.Now()
	res, err := sess.Explore(context.Background(), sys)
	wall := time.Since(t0)
	st.self += wall - (st.te.busyTotal() - busy0)
	st.sysWall[sys.Name] += wall
	if res != nil {
		st.sysRuns[sys.Name] += res.Executed
	}
	return res, err
}

// runPass resets the workload's per-pass state, then times one pass.
// The returned error is an infrastructure failure; a correctness-gate
// failure is st.gate.
func (b *bench) runPass(w workload, n int, traced bool) (*passStats, error) {
	if err := w.prepare(b, n); err != nil {
		return nil, err
	}
	// Every pass starts from the same heap state, with freed memory
	// handed back to the OS as in a fresh process.
	debug.FreeOSMemory()
	var ct *ctrlTimer
	if traced {
		var err error
		if ct, err = installCtrlTimer(systemNames); err != nil {
			return nil, err
		}
	}
	st := newPassStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t0, cpu0 := time.Now(), cpuTime()
	st.gate = w.pass(b, n, st)
	st.wall = time.Since(t0)
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	st.alloc = ms.TotalAlloc - alloc0
	if ct != nil {
		ct.uninstall()
		st.ctrlBusy = time.Duration(ct.busy.Load())
		st.ctrlRuns = ct.runs.Load()
	}
	if st.te != nil {
		st.execBusy = st.te.busyTotal()
		st.batches, st.runs = st.te.counts()
	}
	return st, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts a pass (or probe) against attempted/failed.
func (r *result) tally(log io.Writer, what string, gate error) {
	r.Attempted++
	if gate != nil {
		r.Failed++
		fmt.Fprintf(log, "campaignbench: %s failed the correctness gate: %v\n", what, gate)
	}
}

// run executes one benchmark run. Human-readable lines (the environment
// record, the layer-sum check) go to out; the result is returned.
func run(opt options, exp expectations, out, log io.Writer) (*result, error) {
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(opt.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{opt: opt, exp: exp, work: work}
	if len(b.systems()) != len(systemNames) {
		return nil, fmt.Errorf("want systems %v, registered %v", systemNames, lfi.SystemNames())
	}
	w, err := newWorkload(b)
	if err != nil {
		return nil, err
	}
	writeEnv(out, opt)

	res := &result{Metrics: make(map[string]metric)}
	var setups, setupWalls []float64
	for rep := 0; rep < opt.setupReps; rep++ {
		t0, cpu0 := time.Now(), cpuTime()
		if err := w.setup(b); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		st, err := b.runPass(w, 0, false) // warm-up
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, (cpuTime() - cpu0).Seconds())
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
		res.tally(log, "warm-up pass", st.gate)
	}

	// max_rss_mb is the peak over the measured passes: restart the
	// watermark now that set-up is done.
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return nil, fmt.Errorf("restarting the peak-RSS watermark: %w", err)
	}

	// Pass n makes the workload's n-th variant; only edit-loop has more
	// than one, its edits. A traced run makes each variant twice in a
	// row, untraced then traced, so the two kinds cover the same edits.
	// The run ends at the first whole cycle of variants after the
	// deadline, so every edit weighs the same in the medians however
	// fast the passes are.
	variants, perVariant := 1, 1
	if ew, ok := w.(*editWork); ok {
		variants = len(ew.edits)
	}
	if opt.trace {
		perVariant = 2
	}
	var plain, traced []*passStats
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		tr := opt.trace && i%2 == 1
		st, err := b.runPass(w, 1+i/perVariant, tr)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		res.tally(log, fmt.Sprintf("pass %d", i+1), st.gate)
		if tr {
			traced = append(traced, st)
		} else {
			plain = append(plain, st)
		}
		if (i+1)%(variants*perVariant) == 0 && time.Now().After(deadline) {
			break
		}
	}
	fmt.Fprintf(log, "campaignbench: %s: setups %.3f s CPU, %.3f s wall; %d untraced + %d traced passes, CPU / wall s:",
		opt.workload, setups, setupWalls, len(plain), len(traced))
	for _, p := range plain {
		fmt.Fprintf(log, " %.3f/%.3f", p.cpu.Seconds(), p.wall.Seconds())
	}
	fmt.Fprintln(log)

	if !opt.trace {
		res.set("setup_s", medianOf(setups), "s")
		res.set("campaign_cpu_s", median(plain, func(s *passStats) float64 { return s.cpu.Seconds() }), "s")
		res.set("time_to_bugs_cpu_s", median(plain, func(s *passStats) float64 { return s.ttb.Seconds() }), "s")
		res.set("alloc_mb", median(plain, func(s *passStats) float64 { return float64(s.alloc) / 1e6 }), "MB")
		res.set("max_rss_mb", hwmMB("/proc/self/status"), "MB")
	} else if err := b.layers(w, res, plain, traced, out); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// median is the median of f over the passes.
func median(passes []*passStats, f func(*passStats) float64) float64 {
	vs := make([]float64, len(passes))
	for i, p := range passes {
		vs[i] = f(p)
	}
	return medianOf(vs)
}

func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// hwmMB reads a /proc status file's peak resident set (VmHWM) in MB.
func hwmMB(path string) float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// writeEnv records the seed and the machine the numbers came from.
func writeEnv(out io.Writer, opt options) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		commit += "+dirty"
	}
	data, _ := json.Marshal(map[string]any{"env": map[string]any{
		"workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
		"go": runtime.Version(), "cpu": cpu, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "workers": workers, "commit": commit,
	}})
	fmt.Fprintf(out, "%s\n", data)
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: cold or edit-loop")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed (session seed and edit-loop patch order)")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&opt.work, "work", ".bench_build", "scratch root for stores")
	flag.Parse()
	if trace != 0 && trace != 1 || opt.seconds < 0 {
		fmt.Fprintln(os.Stderr, "campaignbench: -trace must be 0 or 1, -seconds >= 0")
		os.Exit(2)
	}
	opt.trace = trace == 1
	opt.setupReps = setupReps
	res, err := run(opt, defaultExpectations(), os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", data)
}
