package explore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lfi/internal/exec"
)

// TestStoreCrashSafePartialWrite pins the crash-safety satellite: every
// write goes to a temp file first, so a killed campaign leaves at worst
// a stray .tmp alongside intact shards — and a torn shard (simulated
// here by truncating the file in place) is skipped on load, never
// half-parsed into the campaign.
func TestStoreCrashSafePartialWrite(t *testing.T) {
	root := t.TempDir()
	st, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	st.Put("good@aaaa", Entry{Name: "good"})
	st.Put("torn@bbbb", Entry{Name: "torn"})
	if err := st.FlushDirty(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-write: a partial .tmp for one shard, and a
	// truncated (torn) second shard.
	dir := filepath.Join(root, "sys")
	if err := os.WriteFile(filepath.Join(dir, "aaaa.json.tmp123"), []byte(`{"system":"sys","entr`), 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := os.ReadFile(filepath.Join(dir, "bbbb.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bbbb.json"), torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Lookup("good@aaaa"); !ok {
		t.Fatal("intact shard lost")
	}
	if _, ok := st2.Lookup("torn@bbbb"); ok {
		t.Fatal("partial write was loaded")
	}
	// A torn index must not take the shards down with it either.
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(`{"system":"sy`), 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st3.Lookup("good@aaaa"); !ok {
		t.Fatal("torn index dropped intact shards")
	}
}

// TestStoreRefusesFile: a regular file at the store path — a v1
// single-document store, or any stray file — is refused with an error
// naming the cause and left byte-for-byte untouched; a shard directory
// whose index belongs to another system is refused the same way.
func TestStoreRefusesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "explore.json")
	v1 := []byte(`{"system":"sys","image":"img@0","entries":{"s1@aaaa":{"name":"one"}}}`)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStore(path, "sys", "img@1"); err == nil || !strings.Contains(err.Error(), "v1 single-file stores are no longer read") {
		t.Fatalf("file store path accepted or refused without the cause: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("refused v1 store was modified: %q, %v", got, err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil || len(entries) != 1 {
		t.Fatalf("refusal left files beside the v1 store: %v %v", entries, err)
	}

	// A store for a different system is refused, not destroyed.
	root := t.TempDir()
	index := filepath.Join(root, "sys", "index.json")
	if err := os.MkdirAll(filepath.Dir(index), 0o755); err != nil {
		t.Fatal(err)
	}
	theirs := []byte(`{"system":"theirs","images":[]}`)
	if err := os.WriteFile(index, theirs, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStore(root, "sys", "img@1"); err == nil || !strings.Contains(err.Error(), "theirs") {
		t.Fatalf("cross-system store accepted: %v", err)
	}
	if got, err := os.ReadFile(index); err != nil || !bytes.Equal(got, theirs) {
		t.Fatal("refused cross-system store was modified")
	}
}

// TestStoreConcurrentShardFlush is the -race satellite: two workers
// exploring the same system write disjoint shards concurrently —
// interleaved Puts and per-shard flushes — and no entry is lost.
func TestStoreConcurrentShardFlush(t *testing.T) {
	root := t.TempDir()
	st, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	const perWorker = 200
	keys := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			region := fmt.Sprintf("shard%d", w)
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("scen%d@%s", i, region)
				st.Put(key, Entry{Name: fmt.Sprintf("w%d-%d", w, i)})
				mu.Lock()
				keys[key] = true
				mu.Unlock()
				if i%10 == 9 {
					if err := st.FlushShard(region); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.Save(keys); err != nil {
		t.Fatal(err)
	}

	st2, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	for key := range keys {
		if _, ok := st2.Lookup(key); !ok {
			t.Fatalf("entry %s lost", key)
		}
	}
	if got := st2.Shards(); len(got) != 2 {
		t.Fatalf("want 2 shards, have %v", got)
	}
}

// TestStoreConcurrentSameShardFlush: flushes of the SAME region are
// linearized — interleaved Put/FlushShard from two workers can never
// durably persist an older snapshot over a newer one.
func TestStoreConcurrentSameShardFlush(t *testing.T) {
	root := t.TempDir()
	st, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				st.Put(fmt.Sprintf("w%d-%d@shared", w, i), Entry{Name: "e"})
				if i%7 == 6 {
					if err := st.FlushShard("shared"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	st2, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < perWorker; i++ {
			key := fmt.Sprintf("w%d-%d@shared", w, i)
			if _, ok := st2.Lookup(key); !ok {
				t.Fatalf("entry %s lost in same-shard flush race", key)
			}
		}
	}
}

// TestStoreImageRetention: manifests are capped, and shards referenced
// only by evicted images are garbage-collected.
func TestStoreImageRetention(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < maxImages+3; i++ {
		st, err := LoadStore(root, "sys", fmt.Sprintf("img@%d", i))
		if err != nil {
			t.Fatal(err)
		}
		// Every image shares shard "common" and owns one private shard;
		// alternating images also share one of two "pair" shards.
		keys := map[string]bool{
			"s@common":                   true,
			fmt.Sprintf("s@only%d", i):   true,
			fmt.Sprintf("s@pair%d", i%2): true,
		}
		for k := range keys {
			if _, ok := st.Lookup(k); !ok {
				st.Put(k, Entry{Name: k})
			}
		}
		if err := st.Save(keys); err != nil {
			t.Fatal(err)
		}
	}
	st, err := LoadStore(root, "sys", "img@final")
	if err != nil {
		t.Fatal(err)
	}
	if imgs := st.Images(); len(imgs) != maxImages {
		t.Fatalf("retained %d manifests, want %d: %v", len(imgs), maxImages, imgs)
	}
	if _, ok := st.Lookup("s@common"); !ok {
		t.Fatal("shared shard evicted")
	}
	if _, ok := st.Lookup("s@only0"); ok {
		t.Fatal("evicted image's private shard survived")
	}
	last := fmt.Sprintf("s@only%d", maxImages+2)
	if _, ok := st.Lookup(last); !ok {
		t.Fatal("latest image's private shard lost")
	}
}

// TestStoreCostModelRoundTrip: the execution cost model persists in the
// store index across load/save cycles — a resumed session schedules on
// the economics the last one measured.
func TestStoreCostModelRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	st, err := LoadStore(path, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.CostModel(); ok {
		t.Fatal("fresh store claims a cost model")
	}
	want := exec.CostModel{
		GainPerRun: 0.25,
		Batches:    7,
		Speed:      map[string]float64{"local": 1200, "remote(h:1)": 3400},
	}
	st.SetCostModel(want)
	st.Put("scen@aaaa", Entry{Name: "scen"})
	if err := st.Save(map[string]bool{"scen@aaaa": true}); err != nil {
		t.Fatal(err)
	}

	st2, err := LoadStore(path, "sys", "img@2")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.CostModel()
	if !ok {
		t.Fatal("cost model lost across load")
	}
	if got.GainPerRun != want.GainPerRun || got.Batches != want.Batches ||
		got.Speed["local"] != 1200 || got.Speed["remote(h:1)"] != 3400 {
		t.Fatalf("cost model mangled: %+v vs %+v", got, want)
	}
}
