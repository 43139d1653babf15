package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"atcsim/internal/faultinject"
)

type fakeConfig struct {
	Policy  string
	Entries int
}

func testKey(t *testing.T, policy string, entries int) Key {
	t.Helper()
	k, err := NewKey(KindSingle, []string{"pr"}, []int64{1}, 1000, fakeConfig{policy, entries})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyHashStable(t *testing.T) {
	a := testKey(t, "ship", 2048)
	b := testKey(t, "ship", 2048)
	if a.Hash() != b.Hash() {
		t.Errorf("identical keys hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	if len(a.Hash()) != 64 {
		t.Errorf("hash %q is not hex sha256", a.Hash())
	}
}

func TestKeyHashSensitivity(t *testing.T) {
	base := testKey(t, "ship", 2048)
	variants := []Key{
		testKey(t, "t-ship", 2048), // config change
		testKey(t, "ship", 1024),   // config change
	}
	if k, err := NewKey(KindSMT, []string{"pr"}, []int64{1}, 1000, fakeConfig{"ship", 2048}); err == nil {
		variants = append(variants, k) // kind change
	}
	if k, err := NewKey(KindSingle, []string{"mcf"}, []int64{1}, 1000, fakeConfig{"ship", 2048}); err == nil {
		variants = append(variants, k) // workload change
	}
	if k, err := NewKey(KindSingle, []string{"pr"}, []int64{7}, 1000, fakeConfig{"ship", 2048}); err == nil {
		variants = append(variants, k) // seed change
	}
	if k, err := NewKey(KindSingle, []string{"pr"}, []int64{1}, 2000, fakeConfig{"ship", 2048}); err == nil {
		variants = append(variants, k) // trace length change
	}
	seen := map[string]bool{base.Hash(): true}
	for i, v := range variants {
		h := v.Hash()
		if seen[h] {
			t.Errorf("variant %d collides with an earlier key", i)
		}
		seen[h] = true
		if base.Equal(v) {
			t.Errorf("variant %d compares Equal to base", i)
		}
	}
	if !base.Equal(testKey(t, "ship", 2048)) {
		t.Error("identical keys not Equal")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache[int]()
	var computes atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do("k", func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("Do = (%d, %v)", v, err)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	if v, fresh, _ := c.Do("k", func() (int, error) { return 0, nil }); v != 42 || fresh {
		t.Errorf("memoized Do = (%d, fresh=%v)", v, fresh)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

// TestCachePanicPropagates: the computing caller sees the panic, and the
// panic is memoized like a result — the compute runs once, and every later
// Do re-raises the same panic without computing again.
func TestCachePanicPropagates(t *testing.T) {
	c := NewCache[int]()
	recovered := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	var computes atomic.Int32
	for i := 0; i < 3; i++ {
		m := recovered(func() {
			c.Do("bad", func() (int, error) {
				computes.Add(1)
				panic("boom")
			})
		})
		if m != "boom" {
			t.Fatalf("Do %d recovered %v, want boom", i, m)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("panicking compute ran %d times, want 1", n)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestCacheErrorRearms: an error is memoized like a value — the compute
// runs once and later Dos return the same error with fresh=false — except
// an error from the caller's context (cancellation or a deadline), which
// re-arms the key so the next Do computes afresh.
func TestCacheErrorRearms(t *testing.T) {
	c := NewCache[int]()
	sentinel := errors.New("permanent")
	var computes atomic.Int32
	failing := func() (int, error) {
		computes.Add(1)
		return 0, sentinel
	}
	if _, fresh, err := c.Do("k", failing); !fresh || err != sentinel {
		t.Fatalf("first Do = (fresh=%v, %v), want a fresh sentinel", fresh, err)
	}
	for i := 0; i < 3; i++ {
		if _, fresh, err := c.Do("k", failing); fresh || err != sentinel {
			t.Fatalf("memoized Do %d = (fresh=%v, %v), want the sentinel, not fresh", i, fresh, err)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("failing compute ran %d times, want 1", n)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}

	for _, ctxErr := range []error{context.Canceled, context.DeadlineExceeded} {
		key := ctxErr.Error()
		_, _, err := c.Do(key, func() (int, error) { return 0, fmt.Errorf("run abandoned: %w", ctxErr) })
		if !errors.Is(err, ctxErr) {
			t.Fatalf("%s: first Do err = %v", key, err)
		}
		v, fresh, err := c.Do(key, func() (int, error) { return 9, nil })
		if v != 9 || !fresh || err != nil {
			t.Errorf("%s: Do after the context failure = (%d, fresh=%v, %v), want a fresh 9", key, v, fresh, err)
		}
	}
}

// TestCacheFailureDeliveredToWaiters: goroutines waiting on a computation
// that fails observe exactly that failure, and so does a caller arriving
// after it finished — nobody hangs and nobody computes again.
func TestCacheFailureDeliveredToWaiters(t *testing.T) {
	c := NewCache[int]()
	started := make(chan struct{})
	release := make(chan struct{})
	sentinel := errors.New("boom")

	var wg sync.WaitGroup
	var sawFailure, computes atomic.Int32
	compute := func() (int, error) {
		computes.Add(1)
		return 7, nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do("k", func() (int, error) {
			computes.Add(1)
			close(started)
			<-release
			return 0, sentinel
		})
	}()
	<-started
	var arrived sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		arrived.Add(1)
		go func() {
			defer wg.Done()
			arrived.Done()
			_, fresh, err := c.Do("k", compute)
			if fresh || err != sentinel {
				t.Errorf("waiter got (fresh=%v, %v), want the shared failure", fresh, err)
				return
			}
			sawFailure.Add(1)
		}()
	}
	arrived.Wait()
	close(release)
	wg.Wait()
	if n := sawFailure.Load(); n != 4 {
		t.Errorf("%d of 4 waiters saw the failure", n)
	}
	// A late caller inherits the memoized failure too.
	if _, fresh, err := c.Do("k", compute); fresh || err != sentinel {
		t.Errorf("late Do = (fresh=%v, %v), want the memoized failure", fresh, err)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	if p.Jobs() != 3 {
		t.Fatalf("Jobs = %d", p.Jobs())
	}
	var cur, peak atomic.Int32
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Run(func() {
				n := cur.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				<-gate
				cur.Add(-1)
			})
		}()
	}
	close(gate)
	wg.Wait()
	if got := peak.Load(); got > 3 {
		t.Errorf("peak concurrency %d exceeds pool size 3", got)
	}
}

func TestPoolDefaultJobs(t *testing.T) {
	if NewPool(0).Jobs() < 1 {
		t.Error("default pool has no workers")
	}
}

type fakeResult struct {
	IPC   float64
	Hits  uint64
	Notes []string
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := NewDisk(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "ship", 2048)
	want := fakeResult{IPC: 1.25, Hits: 99, Notes: []string{"a", "b"}}

	var miss fakeResult
	if ok, err := d.Load(k, &miss); ok || err != nil {
		t.Fatalf("empty cache Load = (%v, %v)", ok, err)
	}
	if err := d.Store(k, want); err != nil {
		t.Fatal(err)
	}
	var got fakeResult
	ok, err := d.Load(k, &got)
	if !ok || err != nil {
		t.Fatalf("Load after Store = (%v, %v)", ok, err)
	}
	if got.IPC != want.IPC || got.Hits != want.Hits || len(got.Notes) != 2 {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
	// A different key must not hit the stored entry.
	if ok, _ := d.Load(testKey(t, "lru", 2048), &got); ok {
		t.Error("distinct key hit the cache")
	}
	if d.Quarantined() != 0 {
		t.Errorf("clean round trip quarantined %d entries", d.Quarantined())
	}
}

func TestDiskVersionMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "ship", 2048)
	if err := d.Store(k, fakeResult{IPC: 2}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.Hash()+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(raw), fmt.Sprintf(`"version":%d`, FormatVersion), `"version":999`, 1)
	if stale == string(raw) {
		t.Fatal("could not rewrite version field — envelope layout changed?")
	}
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	var got fakeResult
	if ok, err := d.Load(k, &got); ok || err != nil {
		t.Errorf("stale-version Load = (%v, %v), want miss", ok, err)
	}
	// A stale schema is not corruption: no quarantine.
	if d.Quarantined() != 0 {
		t.Errorf("version mismatch quarantined %d entries", d.Quarantined())
	}
}

// TestDiskTruncatedEntryQuarantined: a partially-written (non-atomic copy,
// power loss) entry is a silent miss, and the carcass is moved aside to a
// ".bad" sibling so it cannot be re-trusted and can be inspected.
func TestDiskTruncatedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "ship", 2048)
	path := filepath.Join(dir, k.Hash()+".json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got fakeResult
	if ok, err := d.Load(k, &got); ok || err != nil {
		t.Errorf("corrupt Load = (%v, %v), want silent miss", ok, err)
	}
	if d.Quarantined() != 1 {
		t.Errorf("Quarantined = %d, want 1", d.Quarantined())
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Errorf("no .bad sibling: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still present: %v", err)
	}
	// The key is now a plain miss and can be re-stored and re-loaded.
	if err := d.Store(k, fakeResult{IPC: 3}); err != nil {
		t.Fatal(err)
	}
	if ok, err := d.Load(k, &got); !ok || err != nil || got.IPC != 3 {
		t.Errorf("re-store after quarantine = (%v, %v, %+v)", ok, err, got)
	}
}

// TestDiskChecksumMismatchQuarantined: a well-formed envelope whose payload
// no longer matches its SHA-256 checksum (bit-rot) is quarantined and
// reported as a miss, never decoded.
func TestDiskChecksumMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var observed []string
	d.OnQuarantine(func(path string) { observed = append(observed, path) })
	k := testKey(t, "ship", 2048)
	if err := d.Store(k, fakeResult{IPC: 1.5, Hits: 10}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.Hash()+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload digit, keeping the file valid JSON.
	rotted := strings.Replace(string(raw), `"IPC":1.5`, `"IPC":9.5`, 1)
	if rotted == string(raw) {
		t.Fatal("could not rot the payload — envelope layout changed?")
	}
	if err := os.WriteFile(path, []byte(rotted), 0o644); err != nil {
		t.Fatal(err)
	}
	var got fakeResult
	if ok, err := d.Load(k, &got); ok || err != nil {
		t.Errorf("rotted Load = (%v, %v), want silent miss", ok, err)
	}
	if d.Quarantined() != 1 {
		t.Errorf("Quarantined = %d, want 1", d.Quarantined())
	}
	if len(observed) != 1 || !strings.HasSuffix(observed[0], ".bad") {
		t.Errorf("OnQuarantine observed %v", observed)
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Errorf("no .bad sibling: %v", err)
	}
}

// TestDiskUnwritableDirStoreFails: when the cache directory disappears (or
// becomes unwritable) mid-sweep, Store reports an error — the sweep carries
// on without persistence — and Load degrades to a miss.
func TestDiskUnwritableDirStoreFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "ship", 2048)
	if err := d.Store(k, fakeResult{IPC: 1}); err == nil {
		t.Error("Store into a removed directory succeeded")
	}
	var got fakeResult
	if ok, err := d.Load(k, &got); ok || err != nil {
		t.Errorf("Load from removed directory = (%v, %v), want miss", ok, err)
	}
}

// TestDiskConcurrentStoreSameKey: concurrent Stores to one key must all
// succeed (atomic temp+rename) and leave a valid, loadable entry.
func TestDiskConcurrentStoreSameKey(t *testing.T) {
	d, err := NewDisk(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "ship", 2048)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := d.Store(k, fakeResult{IPC: 1.0, Hits: uint64(i)}); err != nil {
				t.Errorf("concurrent Store: %v", err)
			}
		}(i)
	}
	wg.Wait()
	var got fakeResult
	ok, err := d.Load(k, &got)
	if !ok || err != nil {
		t.Fatalf("Load after concurrent stores = (%v, %v)", ok, err)
	}
	if got.IPC != 1.0 || got.Hits > 15 {
		t.Errorf("loaded entry %+v is not one of the stored values", got)
	}
	if d.Quarantined() != 0 {
		t.Errorf("concurrent stores quarantined %d entries", d.Quarantined())
	}
	// Exactly one entry file, no leaked temp files.
	files, err := os.ReadDir(d.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		names := make([]string, 0, len(files))
		for _, f := range files {
			names = append(names, f.Name())
		}
		t.Errorf("cache dir holds %v, want exactly one entry", names)
	}
}

// TestDiskInjectedFaults: the chaos hooks — I/O errors on Load/Store and
// payload corruption on write — behave as designed.
func TestDiskInjectedFaults(t *testing.T) {
	d, err := NewDisk(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, "ship", 2048)
	plan := faultinject.NewPlan(1,
		faultinject.Rule{Site: faultinject.SiteDiskStore, Kind: faultinject.KindIOErr, Times: 1},
		faultinject.Rule{Site: faultinject.SiteDiskLoad, Kind: faultinject.KindIOErr, Times: 1},
		faultinject.Rule{Site: faultinject.SiteDiskEntry, Kind: faultinject.KindCorrupt, Times: 1},
	)
	d.SetFaults(plan)

	// First store: injected I/O error, wrapped with the entry it hit.
	err = d.Store(k, fakeResult{IPC: 1.25})
	var fe *faultinject.Error
	if !errors.As(err, &fe) || fe.Kind != faultinject.KindIOErr {
		t.Fatalf("injected store error = %v, want an I/O fault", err)
	}
	// Second store succeeds but the corrupt-entry rule tampers the payload.
	if err := d.Store(k, fakeResult{IPC: 1.25}); err != nil {
		t.Fatal(err)
	}
	// First load: injected I/O error.
	var got fakeResult
	if _, err := d.Load(k, &got); err == nil {
		t.Fatal("injected load error missing")
	}
	// Second load: checksum mismatch → quarantine → miss.
	if ok, err := d.Load(k, &got); ok || err != nil {
		t.Errorf("corrupted Load = (%v, %v), want silent miss", ok, err)
	}
	if d.Quarantined() != 1 {
		t.Errorf("Quarantined = %d, want 1", d.Quarantined())
	}
	// Third store/load: plan exhausted, normal round trip.
	if err := d.Store(k, fakeResult{IPC: 2.5}); err != nil {
		t.Fatal(err)
	}
	if ok, err := d.Load(k, &got); !ok || err != nil || got.IPC != 2.5 {
		t.Errorf("post-chaos round trip = (%v, %v, %+v)", ok, err, got)
	}
}

func TestNilDiskIsDisabled(t *testing.T) {
	var d *Disk
	k := testKey(t, "ship", 2048)
	if err := d.Store(k, fakeResult{}); err != nil {
		t.Errorf("nil Store err = %v", err)
	}
	var got fakeResult
	if ok, err := d.Load(k, &got); ok || err != nil {
		t.Errorf("nil Load = (%v, %v)", ok, err)
	}
	if d.Dir() != "" {
		t.Errorf("nil Dir = %q", d.Dir())
	}
	if d.Quarantined() != 0 {
		t.Errorf("nil Quarantined = %d", d.Quarantined())
	}
	d.SetFaults(nil)
	d.OnQuarantine(nil)
}
