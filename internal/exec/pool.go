package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"sync"
)

// Pool is the subprocess backend: a fixed pool of worker processes,
// each driven by a Remote client over its stdin/stdout. The workers
// re-exec the current binary with EnvWorker set, so any program whose
// main (or TestMain) calls MaybeWorker is pool-capable with no separate
// worker executable.
//
// What the pool buys over Local is crash isolation: a workload panic
// that escapes the controller's crash monitor — a logic bug in the
// harness itself, not a simulated crash — kills one worker process, not
// the session. The dead worker is respawned, the lost slice of the
// batch is retried once on a live worker, and only a repeat failure
// surfaces as BackendError for the scheduler to requeue elsewhere.
type Pool struct {
	argv []string
	size int

	mu     sync.Mutex
	closed bool
	procs  map[*Remote]bool
	free   chan *Remote
}

// NewPool starts size worker subprocesses running argv (default: the
// current executable with EnvWorker set) and verifies each with a hello
// exchange. The returned pool must be Closed to reap the workers.
func NewPool(size int, argv ...string) (*Pool, error) {
	if size <= 0 {
		size = 1
	}
	if len(argv) == 0 {
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("exec: pool: %w", err)
		}
		argv = []string{self}
	}
	p := &Pool{
		argv:  argv,
		size:  size,
		procs: make(map[*Remote]bool),
		free:  make(chan *Remote, size),
	}
	for i := 0; i < size; i++ {
		w, err := p.spawn()
		if err != nil {
			p.Close()
			return nil, err
		}
		p.free <- w
	}
	return p, nil
}

// Info reports the pool's metadata: capacity is the worker count (each
// worker runs its slice sequentially; pool parallelism is process-level).
func (p *Pool) Info() Info {
	return Info{Name: fmt.Sprintf("pool(%d)", p.size), Kind: KindPool, Capacity: p.size, Isolated: true}
}

// Close kills every worker process.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	procs := p.procs
	p.procs = make(map[*Remote]bool)
	p.mu.Unlock()
	for w := range procs {
		w.Close()
	}
	return nil
}

// Run scatters the batch in contiguous slices across the pool's
// workers and reassembles outcomes in scenario order. It returns the
// contiguous prefix of completed outcomes; a slice that failed twice
// leaves a gap, and everything from the gap on is reported unfinished
// via BackendError so the scheduler requeues it.
func (p *Pool) Run(ctx context.Context, b *Batch) ([]*Outcome, error) {
	n := len(b.Scenarios)
	if n == 0 {
		return nil, nil
	}
	chunk := (n + p.size - 1) / p.size
	type slice struct{ off, end int }
	var slices []slice
	for off := 0; off < n; off += chunk {
		end := off + chunk
		if end > n {
			end = n
		}
		slices = append(slices, slice{off, end})
	}
	outs := make([]*Outcome, n)
	errs := make([]error, len(slices))
	var wg sync.WaitGroup
	for si, sl := range slices {
		wg.Add(1)
		go func(si int, sl slice) {
			defer wg.Done()
			// One retry on a fresh worker, resuming past whatever the
			// dead worker completed: the first failure may be a
			// crashed (now respawned) process; a second failure means
			// the slice itself is poison or the pool is going down.
			// Sub-batches carry no Observe: Run streams the reassembled
			// prefix once, below.
			done := 0
			var err error
			for attempt := 0; attempt < 2 && sl.off+done < sl.end; attempt++ {
				sub := &Batch{System: b.System, Seed: b.Seed, Coverage: b.Coverage, Scenarios: b.Scenarios[sl.off+done : sl.end]}
				var got []*Outcome
				got, err = p.runSlice(ctx, sub)
				for i, o := range got {
					outs[sl.off+done+i] = o
				}
				done += len(got)
				if err == nil || !IsBackendError(err) || ctx.Err() != nil {
					break
				}
			}
			errs[si] = err
		}(si, sl)
	}
	wg.Wait()

	// Contiguous-prefix contract: stop at the first gap; a slice that
	// completed fully despite a flagged error (cancellation after a
	// drain) still counts.
	var err error
	end := n
	for si, sl := range slices {
		done := len(sliceDone(outs[sl.off:sl.end]))
		if sl.off+done < sl.end {
			end = sl.off + done
			if err = errs[si]; err == nil {
				err = ctx.Err()
			}
			break
		}
		if errs[si] != nil {
			err = errs[si]
		}
	}
	done := outs[:end]
	if b.Observe != nil {
		for i, o := range done {
			b.Observe(i, o)
		}
	}
	return done, err
}

// sliceDone returns the contiguous completed prefix of one slice.
func sliceDone(outs []*Outcome) []*Outcome {
	for i, o := range outs {
		if o == nil {
			return outs[:i]
		}
	}
	return outs
}

// runSlice executes one contiguous slice on the next free worker,
// respawning the worker if it died.
func (p *Pool) runSlice(ctx context.Context, sub *Batch) ([]*Outcome, error) {
	var w *Remote
	select {
	case w = <-p.free:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	outs, err := w.Run(ctx, sub)
	if IsBackendError(err) {
		p.replace(w)
	} else {
		p.free <- w
	}
	return outs, err
}

// replace closes a dead worker and tries to spawn a fresh one in its
// place; on spawn failure the pool just shrinks.
func (p *Pool) replace(w *Remote) {
	w.Close()
	p.mu.Lock()
	delete(p.procs, w)
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return
	}
	nw, err := p.spawn()
	if err != nil {
		return
	}
	p.free <- nw
}

// spawn starts one worker subprocess and connects a Remote to its
// stdio, which performs the hello exchange.
func (p *Pool) spawn() (*Remote, error) {
	cmd := osexec.Command(p.argv[0], p.argv[1:]...)
	cmd.Env = append(os.Environ(), EnvWorker+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("exec: pool: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("exec: pool: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec: pool: %w", err)
	}
	w, err := newRemote(fmt.Sprintf("pool worker %d", cmd.Process.Pid), &childConn{stdout, stdin, cmd})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		w.Close()
		return nil, errors.New("exec: pool closed")
	}
	p.procs[w] = true
	p.mu.Unlock()
	return w, nil
}

// childConn is a worker subprocess's stdio as one stream: reads come
// from its stdout, writes go to its stdin, and Close kills and reaps
// the process.
type childConn struct {
	io.ReadCloser
	io.WriteCloser
	cmd *osexec.Cmd
}

// Close tears the worker down. Its errors carry nothing: the process
// is killed on purpose, so Wait can only report that.
func (c *childConn) Close() error {
	c.WriteCloser.Close()
	c.ReadCloser.Close()
	c.cmd.Process.Kill()
	c.cmd.Wait()
	return nil
}
