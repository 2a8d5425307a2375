package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lfi"
	"lfi/internal/impact"
)

// workers is the session's worker-pool width on every workload.
const workers = 2

// workload is one benchmark workload. setup prepares the state passes
// start from (timed, together with the warm-up pass); prepare resets
// per-pass state outside the timing; pass runs one timed campaign pass,
// recording its layers into st, and returns a correctness-gate failure
// as an error.
type workload interface {
	setup(b *bench) error
	prepare(b *bench, n int) error
	pass(b *bench, n int, st *passStats) error
}

func newWorkload(b *bench) (workload, error) {
	switch b.opt.workload {
	case "cold":
		return &coldWork{store: filepath.Join(b.work, "cold")}, nil
	case "edit-loop":
		return newEditWork(b, filepath.Join(b.work, "edit-fix"), filepath.Join(b.work, "edit"))
	}
	return nil, fmt.Errorf("unknown workload %q (want cold or edit-loop)", b.opt.workload)
}

// systemNames are the six built-in systems every workload explores,
// named explicitly so that registering another system does not
// silently change the numbers.
var systemNames = []string{"minidb", "minidns", "minivcs", "miniweb", "pbft", "raft"}

// --- cold --------------------------------------------------------------------

// coldWork is a user's first campaign: every system explored to
// fixpoint at default flags into a fresh store, on the local backend.
type coldWork struct{ store string }

func (w *coldWork) setup(b *bench) error { return nil }

func (w *coldWork) prepare(b *bench, n int) error { return os.RemoveAll(w.store) }

func (w *coldWork) pass(b *bench, n int, st *passStats) error {
	te := st.useExec(lfi.NewLocalExecutor(workers), b.systems())
	sess, err := lfi.NewSession(lfi.WithWorkers(workers), lfi.WithSeed(b.opt.seed),
		lfi.WithStore(w.store), lfi.WithExecutor(te))
	if err != nil {
		return err
	}
	defer sess.Close()
	return exploreTimed(b, sess, st, te)
}

// exploreTimed explores every system of the pass in order, gating each
// result and adding the CPU time from the start of its Explore to the
// batch that returned its last stock bug to st.ttb.
func exploreTimed(b *bench, sess *lfi.Session, st *passStats, te *timedExec) error {
	for _, sys := range b.systems() {
		start := cpuTime()
		res, err := st.explore(sess, sys)
		if err != nil {
			return fmt.Errorf("%s: explore: %w", sys.Name, err)
		}
		if err := b.exp.checkExplore(sys, res); err != nil {
			return err
		}
		last, ok := te.lastBug(sys.Name)
		if !ok {
			return fmt.Errorf("%s: no batch returned every stock bug", sys.Name)
		}
		st.ttb += last - start
	}
	return nil
}

// buildFixpoint explores every system of the workload into dir until a
// rerun executes nothing.
func buildFixpoint(b *bench, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	for round := 0; round < 5; round++ {
		sess, err := lfi.NewSession(lfi.WithWorkers(workers), lfi.WithSeed(b.opt.seed), lfi.WithStore(dir))
		if err != nil {
			return err
		}
		executed := 0
		for _, sys := range b.systems() {
			res, err := sess.Explore(context.Background(), sys)
			if err != nil {
				return fmt.Errorf("%s: explore: %w", sys.Name, err)
			}
			executed += res.Executed
		}
		if executed == 0 {
			return nil
		}
	}
	return fmt.Errorf("store %s not at fixpoint after 5 rounds", dir)
}

// --- edit-loop ---------------------------------------------------------------

// editWork is the developer's incremental loop over a fixpoint store:
// resume every system, an inert one-function edit, a WithImpact
// re-explore of every system (the edited one included), and a
// store-backed lint of every system.
type editWork struct {
	fix, dir string
	// edits holds every patchable function of every system in a seeded
	// order; pass n makes edit n mod len, and a run measures whole
	// cycles of them, so every edit weighs the same whatever the seed.
	edits []edit
}

type edit struct{ system, fn string }

func newEditWork(b *bench, fix, dir string) (*editWork, error) {
	w := &editWork{fix: fix, dir: dir}
	for _, sys := range b.systems() {
		bin, _ := sys.Binary()
		var fns []string
		for fn := range impact.FuncHashes(bin) {
			if _, err := impact.PatchFunc(bin, fn); err == nil {
				fns = append(fns, fn)
			}
		}
		if len(fns) == 0 {
			return nil, fmt.Errorf("%s: no function accepts an inert patch", sys.Name)
		}
		sort.Strings(fns)
		for _, fn := range fns {
			w.edits = append(w.edits, edit{sys.Name, fn})
		}
	}
	rng := rand.New(rand.NewSource(b.opt.seed))
	rng.Shuffle(len(w.edits), func(i, j int) { w.edits[i], w.edits[j] = w.edits[j], w.edits[i] })
	return w, nil
}

// patched returns the workload's systems with edit e applied.
func patched(b *bench, e edit) ([]*lfi.System, error) {
	systems := b.systems()
	for i, sys := range systems {
		if sys.Name == e.system {
			psys, err := lfi.PatchSystem(sys, e.fn)
			if err != nil {
				return nil, err
			}
			systems[i] = psys
		}
	}
	return systems, nil
}

func (w *editWork) setup(b *bench) error { return buildFixpoint(b, w.fix) }

func (w *editWork) prepare(b *bench, n int) error {
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	return copyTree(w.fix, w.dir)
}

func (w *editWork) pass(b *bench, n int, st *passStats) error {
	te := st.useExec(lfi.NewLocalExecutor(workers), b.systems())
	opts := []lfi.SessionOption{lfi.WithWorkers(workers), lfi.WithSeed(b.opt.seed),
		lfi.WithStore(w.dir), lfi.WithExecutor(te)}
	resume, err := lfi.NewSession(opts...)
	if err != nil {
		return err
	}
	t0, cpu0 := time.Now(), cpuTime()
	for _, sys := range b.systems() {
		res, err := st.explore(resume, sys)
		if err != nil {
			return fmt.Errorf("%s: resume: %w", sys.Name, err)
		}
		st.resumeRuns += res.Executed
		if res.Executed != 0 {
			return fmt.Errorf("%s: resume from the fixpoint store executed %d runs", sys.Name, res.Executed)
		}
		if err := b.exp.checkExplore(sys, res); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
	}
	st.resume = time.Since(t0)
	// The stock bugs come back from the store, not from an executor
	// call: they are known once the resume returns.
	st.ttb = cpuTime() - cpu0

	t1 := time.Now()
	systems, err := patched(b, w.edits[n%len(w.edits)])
	if err != nil {
		return err
	}
	edited, err := lfi.NewSession(append(opts, lfi.WithImpact())...)
	if err != nil {
		return err
	}
	for _, psys := range systems {
		res, err := st.explore(edited, psys)
		if err != nil {
			return fmt.Errorf("%s: impact re-explore: %w", psys.Name, err)
		}
		if err := b.exp.checkExplore(psys, res); err != nil {
			return fmt.Errorf("impact re-explore: %w", err)
		}
		st.impactRuns += res.Executed
	}
	st.impact = time.Since(t1)

	t2 := time.Now()
	for _, psys := range systems {
		l0 := time.Now()
		rep, err := edited.Lint(psys)
		if err != nil {
			return fmt.Errorf("%s: lint: %w", psys.Name, err)
		}
		st.sysWall[psys.Name] += time.Since(l0)
		if err := b.exp.checkLint(rep); err != nil {
			return err
		}
	}
	st.lint = time.Since(t2)
	return nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}
