package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"atcsim/internal/faultinject"
)

// FormatVersion identifies the on-disk cache schema. Entries written with a
// different version are ignored (treated as misses), so bumping this after
// an incompatible change to the result or key layout invalidates stale
// caches instead of mis-deserializing them. Version 2 added the result
// checksum. Version 3 invalidates multi-core results computed before
// multi-core machines prefaulted their trace footprints and resolved shared
// accesses at cycle-window barriers, which changed their (still
// deterministic) numbers. Version 4 invalidates SMT and multi-core results
// whose per-thread counters ran past the thread's target: their run keys
// did not change when those counters learned to stop there.
const FormatVersion = 4

// Disk is an on-disk result store: one JSON file per run key, named by the
// key's hash. Writes are crash-safe: the entry is written to a temp file in
// the cache directory, fsynced, and only then atomically renamed into
// place (with a best-effort directory fsync to persist the rename), so a
// process killed at any instant — mid-write, mid-drain, even SIGKILL —
// never leaves a torn entry under a final name. A restart sees either the
// complete entry or a plain miss; stale temp files from killed writers are
// swept when the directory is reopened. Every entry carries a SHA-256
// checksum of its result payload. Corruption — an unparseable file or a
// checksum mismatch — is detected on load, the entry is quarantined to a
// ".bad" sibling file for post-mortem inspection, and the result is
// recomputed; corruption is never trusted and never fatal.
//
// A cache directory belongs to one live process at a time (sequential
// reuse — resume, warm restart — is the supported sharing model); the
// stale-temp sweep at open assumes no concurrent writer.
//
// A nil *Disk is valid and behaves as an always-miss, discard-writes store.
type Disk struct {
	dir         string
	faults      *faultinject.Plan
	quarantined atomic.Int64
	// onQuarantine, when non-nil, observes each quarantined entry path.
	onQuarantine func(path string)
}

// envelope is the on-disk file layout.
type envelope struct {
	// Version is the cache format version (FormatVersion at write time).
	Version int `json:"version"`
	// Key reproduces the full canonical key for debuggability and to guard
	// against hash collisions.
	Key Key `json:"key"`
	// Checksum is the hex SHA-256 of Result, verified on load.
	Checksum string `json:"checksum"`
	// Result is the simulation result, opaque to this package.
	Result json.RawMessage `json:"result"`
}

// NewDisk opens (creating if necessary) a cache directory. The directory
// path is embedded in any error so callers can report it verbatim. Stale
// temp files left behind by a writer killed mid-Store are swept here: they
// were never renamed into place, so they are invisible to Load and safe to
// delete.
func NewDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, errors.New("runner: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cannot create cache directory %q: %w", dir, err)
	}
	if stale, err := filepath.Glob(filepath.Join(dir, "entry-*.tmp")); err == nil {
		for _, path := range stale {
			os.Remove(path)
		}
	}
	return &Disk{dir: dir}, nil
}

// SetFaults installs a fault-injection plan consulted on every Load/Store
// (chaos testing). Call before the store is shared across goroutines.
func (d *Disk) SetFaults(p *faultinject.Plan) {
	if d != nil {
		d.faults = p
	}
}

// OnQuarantine installs an observer invoked with the ".bad" path of every
// quarantined entry. Call before the store is shared across goroutines.
func (d *Disk) OnQuarantine(f func(path string)) {
	if d != nil {
		d.onQuarantine = f
	}
}

// Dir returns the cache directory ("" for a nil store).
func (d *Disk) Dir() string {
	if d == nil {
		return ""
	}
	return d.dir
}

// Quarantined returns how many corrupt entries this store has quarantined.
func (d *Disk) Quarantined() int64 {
	if d == nil {
		return 0
	}
	return d.quarantined.Load()
}

func (d *Disk) path(k Key) string {
	return filepath.Join(d.dir, k.Hash()+".json")
}

func checksum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// quarantine moves a corrupt entry aside to path+".bad" so it is recomputed
// now and inspectable later instead of being re-trusted or deleted.
func (d *Disk) quarantine(path string) {
	if err := os.Rename(path, path+".bad"); err != nil {
		// Fall back to removal: the entry must not be loaded again.
		os.Remove(path)
	}
	d.quarantined.Add(1)
	if d.onQuarantine != nil {
		d.onQuarantine(path + ".bad")
	}
}

// Load looks k up, unmarshaling the stored result into out (a pointer) when
// present. It returns ok=false — with a nil error — for genuine misses,
// version mismatches, hash collisions and corrupt entries (which are
// quarantined to a ".bad" sibling): all of those mean "recompute", not
// "fail the sweep". The error is reserved for I/O-level read failures and
// for a verified entry that could not be decoded into out.
func (d *Disk) Load(k Key, out any) (ok bool, err error) {
	if d == nil {
		return false, nil
	}
	path := d.path(k)
	if err := d.faults.Check(faultinject.SiteDiskLoad, k.Hash()); err != nil {
		return false, fmt.Errorf("runner: cache read %q: %w", path, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, nil // miss (or unreadable — recompute either way)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		d.quarantine(path) // truncated or garbled entry
		return false, nil
	}
	if env.Version != FormatVersion || !env.Key.Equal(k) {
		return false, nil // stale schema or hash collision: plain miss
	}
	if checksum(env.Result) != env.Checksum {
		d.quarantine(path) // bit-rot inside a well-formed envelope
		return false, nil
	}
	if err := json.Unmarshal(env.Result, out); err != nil {
		return false, fmt.Errorf("runner: cache entry %s: decode result: %w", path, err)
	}
	return true, nil
}

// Store writes v as the cached result for k, atomically replacing any
// existing entry. The write is crash-safe: the envelope lands in a temp
// file first, is fsynced to stable storage, and only then renamed onto the
// final name, followed by a best-effort fsync of the directory itself — a
// kill at any point leaves either the old entry, the new entry, or a
// sweep-on-reopen temp file, never a torn entry.
func (d *Disk) Store(k Key, v any) error {
	if d == nil {
		return nil
	}
	if err := d.faults.Check(faultinject.SiteDiskStore, k.Hash()); err != nil {
		return fmt.Errorf("runner: cache write %q: %w", d.path(k), err)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: marshal result for %s: %w", k.Hash(), err)
	}
	sum := checksum(raw)
	if d.faults.ShouldCorrupt(k.Hash()) {
		// Chaos hook: keep the envelope well-formed but flip one digit of
		// the payload, simulating bit-rot that only the checksum catches.
		raw = tamper(raw)
	}
	env, err := json.Marshal(envelope{Version: FormatVersion, Key: k, Checksum: sum, Result: raw})
	if err != nil {
		return fmt.Errorf("runner: marshal cache entry for %s: %w", k.Hash(), err)
	}
	tmp, err := os.CreateTemp(d.dir, "entry-*.tmp")
	if err != nil {
		return fmt.Errorf("runner: cache write in %q: %w", d.dir, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("runner: cache write %q: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("runner: cache sync %q: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runner: cache write %q: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, d.path(k)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runner: cache commit %q: %w", d.path(k), err)
	}
	d.syncDir()
	return nil
}

// syncDir fsyncs the cache directory so a just-committed rename survives a
// crash. Best effort: some platforms/filesystems reject directory fsync,
// and a failed directory sync only weakens durability, never correctness —
// Load either sees the complete entry or a miss.
func (d *Disk) syncDir() {
	f, err := os.Open(d.dir)
	if err != nil {
		return
	}
	f.Sync()
	f.Close()
}

// tamper flips one decimal digit of a JSON payload, leaving it parseable so
// the corruption is caught by the checksum rather than the JSON decoder.
func tamper(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	for i, b := range out {
		if b >= '0' && b <= '8' {
			out[i] = b + 1
			return out
		}
		if b == '9' {
			out[i] = '8'
			return out
		}
	}
	// No digit to flip (shouldn't happen for simulation results): make the
	// payload undecodable instead; Load quarantines either way.
	if len(out) > 0 {
		out[0] ^= 0x01
	}
	return out
}
