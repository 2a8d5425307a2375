package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lfi/internal/scenario"
)

// TestRemoteCancelFastWithoutGrace pins the cancel contract for both
// Remote-driven backends, a loopback `lfi serve` worker and a
// subprocess pool: cancelling a Run against a live worker returns the
// completed prefix promptly — the cancel frame stops the worker after
// its in-flight run — with the 30s drain grace untouched (it only
// guards wedged workers, never the steady-state cost of a Ctrl-C).
// Completed runs are not lost: the prefix is byte-identical to a local
// run of the same batch.
func TestRemoteCancelFastWithoutGrace(t *testing.T) {
	pool, err := NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	scens := testScenarios(t)
	var big []*scenario.Scenario
	for len(big) < 2000 {
		big = append(big, scens...)
	}
	for _, tc := range []struct {
		name string
		e    Executor
	}{
		{"remote", startLoopbackServe(t, 1)},
		{"pool", pool},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Note: the drain grace is left at its 30s default on purpose.
			var outs []*Outcome
			completed := 0
			// The cancel must land mid-batch. One that lands before the
			// worker started its first run (encoding 2000 scenarios can
			// outlast the delay under -race) returns an empty prefix,
			// which proves nothing: wait longer and cancel again.
			for delay := 20 * time.Millisecond; completed == 0 && delay < 5*time.Second; delay *= 2 {
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(delay, cancel)
				start := time.Now()
				var err error
				outs, err = tc.e.Run(ctx, &Batch{System: "minidb", Coverage: true, Scenarios: big})
				elapsed := time.Since(start)
				cancel()
				if err != context.Canceled {
					t.Fatalf("cancelled run: err %v (completed %d), want context.Canceled — batch too fast for the cancel?", err, len(outs))
				}
				if elapsed > delay+10*time.Second {
					t.Fatalf("cancel took %v: the run leaned on the 30s drain grace instead of the cancel frame", elapsed)
				}
				completed = 0
				for _, o := range outs {
					if o == nil {
						break
					}
					completed++
				}
			}
			if completed == 0 || completed >= len(big) {
				t.Fatalf("cancel completed %d of %d runs; want a partial prefix", completed, len(big))
			}
			// Zero completed runs lost or corrupted: the prefix matches
			// a local run of the identical batch.
			want, err := NewLocal(1).Run(context.Background(), &Batch{System: "minidb", Coverage: true, Scenarios: big[:completed]})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshalOutcomes(t, outs[:completed]), marshalOutcomes(t, want)) {
				t.Fatal("cancelled prefix diverges from a local run of the same scenarios")
			}
		})
	}
}

// TestDialProtoMismatch: a worker advertising any protocol version but
// this build's is refused at Dial with ProtoMismatchError — the error
// fleet assembly turns into "drop this worker, keep the campaign".
func TestDialProtoMismatch(t *testing.T) {
	for _, proto := range []int{2, 4} {
		t.Run(fmt.Sprintf("v%d", proto), func(t *testing.T) {
			r, err := Dial(fakeWorker(t, proto, nil))
			var pm *ProtoMismatchError
			if !errors.As(err, &pm) {
				if r != nil {
					r.Close()
				}
				t.Fatalf("Dial against a proto-%d worker: %v, want ProtoMismatchError", proto, err)
			}
			if pm.Got != proto || !strings.Contains(err.Error(), "rebuild worker") {
				t.Fatalf("mismatch error %q: want Got %d and the rebuild remedy", err, proto)
			}
		})
	}
}

// TestServeConnRejectsOldHello: the worker side of the version check. A
// hello without a protocol version (what pre-versioned clients sent) or
// with an older one is answered in-band with an error naming the
// remedy, and the connection ends.
func TestServeConnRejectsOldHello(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto int
	}{
		{"no-proto", 0},
		{"proto-2", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			done := make(chan error, 1)
			go func() {
				done <- ServeConn(server, 1)
				server.Close()
			}()
			if err := writeFrame(client, &request{ID: 1, Method: "hello", Proto: tc.proto}); err != nil {
				t.Fatal(err)
			}
			var resp response
			if err := readFrame(client, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Hello != nil || !strings.Contains(resp.Error, "rebuild client") {
				t.Fatalf("old hello answered with %+v, want an in-band rebuild error", resp)
			}
			if err := <-done; err == nil || errors.Is(err, io.EOF) {
				t.Fatalf("connection loop ended with %v, want the version error", err)
			}
		})
	}
}

// TestPoolObserveOncePerOutcome: the pool streams every outcome to
// Batch.Observe exactly once, by batch index — its per-worker
// sub-batches must not also report through the worker clients.
func TestPoolObserveOncePerOutcome(t *testing.T) {
	pool, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	scens := testScenarios(t)
	seen := make([]atomic.Int32, len(scens))
	var got []*Outcome
	var gotMu sync.Mutex
	outs, err := pool.Run(context.Background(), &Batch{System: "minidb", Scenarios: scens, Observe: func(i int, o *Outcome) {
		seen[i].Add(1)
		gotMu.Lock()
		got = append(got, o)
		gotMu.Unlock()
	}})
	if err != nil || len(outs) != len(scens) {
		t.Fatalf("pool run: %d outcomes, err %v", len(outs), err)
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Errorf("outcome %d observed %d times, want 1", i, n)
		}
	}
	for i, o := range got {
		if o != outs[i] {
			t.Fatalf("observation %d is not outcome %d", i, i)
		}
	}
}

// TestRemotePipelinedConcurrentBatches: a connection carries
// several batches at once (the scheduler keeps Pipeline() in flight);
// concurrent Runs on one Remote must all complete and stay
// byte-identical to the local backend per batch.
func TestRemotePipelinedConcurrentBatches(t *testing.T) {
	r := startLoopbackServe(t, 2)
	scens := testScenarios(t)
	local := NewLocal(2)
	got := make([][]*Outcome, defaultPipeline)
	errs := make([]error, defaultPipeline)
	var wg sync.WaitGroup
	for seed := range got {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			got[seed], errs[seed] = r.Run(context.Background(), &Batch{System: "minidb", Seed: int64(seed), Coverage: true, Scenarios: scens})
		}(seed)
	}
	wg.Wait()
	for seed, outs := range got {
		if errs[seed] != nil {
			t.Errorf("seed %d: %v", seed, errs[seed])
			continue
		}
		want, err := local.Run(context.Background(), &Batch{System: "minidb", Seed: int64(seed), Coverage: true, Scenarios: scens})
		if err != nil {
			t.Fatalf("seed %d local: %v", seed, err)
		}
		if !bytes.Equal(marshalOutcomes(t, outs), marshalOutcomes(t, want)) {
			t.Errorf("seed %d: pipelined outcomes diverge from local", seed)
		}
	}
}
