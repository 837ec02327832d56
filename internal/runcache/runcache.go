// Package runcache is a content-addressed on-disk cache of simulation
// results, keyed by a canonical hash of the complete scenario.Config
// (which includes the seed) plus a code-version salt. The simulator is
// deterministic — identical configuration and seed always produce
// identical RunMetrics — so a cached result is not an approximation of a
// re-run, it IS the re-run. The experiment engine's workers consult the
// cache before simulating each sweep cell, which makes repeated sweeps
// nearly free and turns every completed run into a checkpoint: a killed
// sweep re-invoked with the same cache directory resumes from what is on
// disk.
//
// # Keying
//
// The key is SHA-256 over a canonical byte encoding of the configuration,
// produced by reflection over scenario.Config: every field — nested
// structs, slices, numeric and string leaves — is folded into the hash
// tagged with its path, so two configs hash equally iff they are equal
// field-for-field. Because the walk is reflective, a newly added Config
// field is automatically part of the key; there is no hand-maintained
// field list to forget to update (the field-sensitivity test in this
// package proves every field perturbs the hash). Fields of a kind the
// encoder does not understand (funcs, maps, channels, pointers) make Key
// fail loudly rather than silently dropping out of the key. The stream is
// built in one reused buffer and hashed once, so a key costs a few
// microseconds and no allocations beyond its result; TestKeyGolden pins
// its exact bytes.
//
// SchemaVersion salts every key. Bump it whenever simulator behaviour
// changes (golden fixtures move), and every stale cache entry misses.
//
// # Layout
//
// Entries live at <dir>/<kk>/<key>.json, where kk is the first two hex
// digits of the key (a fan-out shard keeping directories small). Each
// entry is a JSON document carrying the schema version, the GOARCH it was
// produced on (float metrics are only bit-stable per architecture, exactly
// like the golden fixtures), the key, and the RunMetrics in the same
// encoding the golden fixtures use. Entries are written atomically
// (temp file + rename), so a sweep killed mid-write never leaves a
// half-entry behind — at worst the cell is recomputed.
//
// # Robustness
//
// The store never fails a sweep. A corrupt entry (truncated write on a
// dying disk, editor damage, bit rot) is quarantined: moved aside to
// <dir>/quarantine/ — preserved for post-mortems, never re-served, never
// re-tripped — and the cell recomputes. Entries from another simulator
// version or architecture are NOT corruption: they miss in place,
// untouched, for whoever owns them. Reads that fail for I/O reasons
// degrade to plain misses and are counted. Health reports all three
// counters so callers can surface a sick cache instead of silently
// recomputing forever.
package runcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"mtsim/internal/metrics"
	"mtsim/internal/scenario"
)

// SchemaVersion is the code-version salt folded into every key. Bump it
// whenever a change alters simulation behaviour (the same commit that
// regenerates the golden fixtures), so stale entries can never be served.
const SchemaVersion = "mtsim-run/v6"

// Key returns the content address of a configuration: hex SHA-256 over
// SchemaVersion plus the canonical encoding of every field of cfg
// (the seed included). It errors on configurations containing fields the
// canonical encoder cannot represent.
func Key(cfg scenario.Config) (string, error) {
	return KeySalted(cfg, SchemaVersion)
}

// KeySalted is Key under a caller-chosen version salt (tests; parallel
// cache namespaces).
func KeySalted(cfg scenario.Config, salt string) (string, error) {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.buf = appendString(e.buf[:0], salt)
	e.path = append(e.path[:0], "Config"...)
	if err := e.encode(reflect.ValueOf(cfg)); err != nil {
		return "", err
	}
	sum := sha256.Sum256(e.buf)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return string(hexSum[:]), nil
}

// encoder builds the canonical byte stream of one configuration in a
// single buffer, hashed once at the end. Both buffers are reused across
// keys (encoders), so a key costs no allocations beyond its result.
type encoder struct {
	buf  []byte // the canonical stream
	path []byte // the field path of the value being encoded
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// fieldPaths caches, per struct type, the path suffix ".Name" of each
// field, so walking a struct appends names instead of building strings.
var fieldPaths sync.Map // reflect.Type → []string

func structFieldPaths(t reflect.Type) []string {
	if names, ok := fieldPaths.Load(t); ok {
		return names.([]string)
	}
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = "." + t.Field(i).Name
	}
	fieldPaths.Store(t, names)
	return names
}

func appendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendString(b []byte, s string) []byte {
	return append(appendUint64(b, uint64(len(s))), s...)
}

// encode appends one value to the stream, tagged with its field path and
// kind so no two distinct configurations share an encoding: the path
// (length-prefixed), the kind, then the payload — leaves as one 64-bit
// word or a length-prefixed string, slices and structs as their length
// followed by each element or field under its own path.
func (e *encoder) encode(v reflect.Value) error {
	e.buf = append(appendUint64(e.buf, uint64(len(e.path))), e.path...)
	e.buf = appendUint64(e.buf, uint64(v.Kind()))
	switch v.Kind() {
	case reflect.Bool:
		var b uint64
		if v.Bool() {
			b = 1
		}
		e.buf = appendUint64(e.buf, b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.buf = appendUint64(e.buf, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.buf = appendUint64(e.buf, v.Uint())
	case reflect.Float32, reflect.Float64:
		e.buf = appendUint64(e.buf, math.Float64bits(v.Float()))
	case reflect.String:
		e.buf = appendString(e.buf, v.String())
	case reflect.Slice, reflect.Array:
		n := v.Len()
		e.buf = appendUint64(e.buf, uint64(n))
		parent := len(e.path)
		for i := 0; i < n; i++ {
			e.path = append(strconv.AppendInt(append(e.path[:parent], '['), int64(i), 10), ']')
			if err := e.encode(v.Index(i)); err != nil {
				return err
			}
		}
		e.path = e.path[:parent]
	case reflect.Struct:
		names := structFieldPaths(v.Type())
		e.buf = appendUint64(e.buf, uint64(len(names)))
		parent := len(e.path)
		for i, name := range names {
			e.path = append(e.path[:parent], name...)
			if err := e.encode(v.Field(i)); err != nil {
				return err
			}
		}
		e.path = e.path[:parent]
	default:
		return fmt.Errorf("runcache: cannot canonically encode %s (kind %s) — "+
			"extend the encoder before adding such fields to scenario.Config", e.path, v.Kind())
	}
	return nil
}

// entry is the on-disk document. Metrics reuse the golden-fixture JSON
// encoding of metrics.RunMetrics; Schema/GOARCH/Key gate staleness.
type entry struct {
	Schema   string              `json:"schema"`
	GOARCH   string              `json:"goarch"`
	Key      string              `json:"key"`
	Protocol string              `json:"protocol"`
	Seed     int64               `json:"seed"`
	Metrics  *metrics.RunMetrics `json:"metrics"`
}

// quarantineDir is the subdirectory corrupt entries are moved into —
// deliberately not a two-hex-digit name, so it can never collide with a
// shard and Len/sweepOrphans skip it by name.
const quarantineDir = "quarantine"

// Health is a snapshot of a store's degradation counters. All zeros is
// a healthy cache; anything else is worth a warning line (the cache
// itself keeps working — misses recompute).
type Health struct {
	// Quarantined counts corrupt entries moved aside to the quarantine
	// directory (preserved for post-mortems, never served again).
	Quarantined int
	// DegradedReads counts lookups that failed for I/O reasons other
	// than absence (permissions, a dying disk) and were served as plain
	// misses.
	DegradedReads int
	// StaleMisses counts lookups that found a valid entry from another
	// schema version or architecture — not corruption, left in place.
	StaleMisses int
}

// Store is a cache rooted at one directory. All methods are safe for
// concurrent use by the sweep's worker goroutines: entries are immutable
// once written, writes are atomic renames, and the health counters are
// mutex-guarded.
type Store struct {
	dir  string
	salt string

	mu     sync.Mutex
	health Health
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*Store, error) {
	return OpenSalted(dir, SchemaVersion)
}

// OpenSalted opens a cache whose keys use the given version salt.
func OpenSalted(dir, salt string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	s := &Store{dir: dir, salt: salt}
	s.sweepOrphans()
	return s, nil
}

// sweepOrphans removes temp files left behind by sweeps killed mid-Put
// (the designed resume workflow), so repeated kill/resume cycles cannot
// litter the shards unboundedly. Any .tmp file predating this Open is
// dead by construction. In the rare cross-process race — another process
// mid-Put while we open the same cache — removing its temp file merely
// fails that one Put (counted, non-fatal), never corrupts an entry.
func (s *Store) sweepOrphans() {
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, sh := range shards {
		if !sh.IsDir() || sh.Name() == quarantineDir {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if !f.IsDir() && strings.Contains(f.Name(), ".tmp") {
				os.Remove(filepath.Join(s.dir, sh.Name(), f.Name()))
			}
		}
	}
}

// Dir returns the cache's root directory.
func (s *Store) Dir() string { return s.dir }

// validKey reports whether key is a well-formed content address: exactly
// 64 lowercase hex digits, the shape every KeySalted output has. Every key
// must pass this gate before it reaches the filesystem — a malformed key
// is never a path (no traversal, no short-key slicing), it is simply not
// an entry.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path maps a key to its on-disk location. Callers must have validated
// key (validKey) — keys minted by KeySalted always pass.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Get returns the cached metrics for cfg, or (nil, false) on any miss:
// absent entry, unreadable or corrupt file, schema or architecture
// mismatch. A miss is never an error — the caller recomputes. Corrupt
// entries are quarantined on sight; I/O failures and stale-version hits
// are counted in Health.
func (s *Store) Get(cfg scenario.Config) (*metrics.RunMetrics, bool) {
	key, err := KeySalted(cfg, s.salt)
	if err != nil {
		return nil, false
	}
	e, ok := s.readValidated(key)
	if !ok {
		return nil, false
	}
	return e.Metrics, true
}

// readValidated reads one entry by key and applies the store's full
// validation discipline: corrupt documents are quarantined, entries from
// another schema version or architecture miss in place, I/O failures
// degrade to counted misses.
func (s *Store) readValidated(key string) (*entry, bool) {
	if !validKey(key) {
		// Not a content address — nothing on disk can be its entry, and
		// it must never be turned into a path (an attacker-shaped key
		// could otherwise traverse, or quarantine-move, arbitrary files).
		return nil, false
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			// Read-only or erroring directory: degrade to pass-through —
			// the sweep recomputes, the counter tells the story.
			s.mu.Lock()
			s.health.DegradedReads++
			s.mu.Unlock()
		}
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		s.quarantine(key)
		return nil, false
	}
	if e.Schema != s.salt || e.GOARCH != runtime.GOARCH {
		// A valid entry from another simulator version or architecture —
		// not corruption; leave it in place for whoever owns it.
		s.mu.Lock()
		s.health.StaleMisses++
		s.mu.Unlock()
		return nil, false
	}
	if e.Key != key || e.Metrics == nil {
		s.quarantine(key)
		return nil, false
	}
	return &e, true
}

// quarantine moves a corrupt entry aside to <dir>/quarantine/<key>.json:
// it stops being served (and stops tripping every future lookup of its
// cell) but is preserved for post-mortems rather than deleted. A failed
// move (read-only cache) counts as a degraded read instead — the lookup
// is still just a miss.
func (s *Store) quarantine(key string) {
	dst := filepath.Join(s.dir, quarantineDir, key+".json")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err == nil {
		if err := os.Rename(s.path(key), dst); err == nil {
			s.mu.Lock()
			s.health.Quarantined++
			s.mu.Unlock()
			return
		}
	}
	s.mu.Lock()
	s.health.DegradedReads++
	s.mu.Unlock()
}

// Health returns a snapshot of the store's degradation counters since
// Open. All zeros means every lookup was a clean hit or a clean miss.
func (s *Store) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.health
}

// EntryPath reports where cfg's entry lives (or would live) on disk —
// the path warnings and post-mortems should name.
func (s *Store) EntryPath(cfg scenario.Config) (string, error) {
	key, err := KeySalted(cfg, s.salt)
	if err != nil {
		return "", err
	}
	return s.path(key), nil
}

// Put stores the metrics of one completed run under cfg's key. The write
// is atomic (temp file + rename into place), so concurrent writers of the
// same key and sweeps killed mid-write both leave a valid store.
func (s *Store) Put(cfg scenario.Config, m *metrics.RunMetrics) error {
	key, err := KeySalted(cfg, s.salt)
	if err != nil {
		return err
	}
	doc, err := json.MarshalIndent(entry{
		Schema:   s.salt,
		GOARCH:   runtime.GOARCH,
		Key:      key,
		Protocol: cfg.Protocol,
		Seed:     cfg.Seed,
		Metrics:  m,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	doc = append(doc, '\n')
	return s.writeDoc(key, doc)
}

// writeDoc atomically writes one entry document into the key's shard
// (temp file + rename).
func (s *Store) writeDoc(key string, doc []byte) error {
	dst := s.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), key+".tmp*")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	if _, err := tmp.Write(doc); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	return nil
}

// Len reports the number of live entries on disk (tests, status lines):
// quarantined corpses are not entries and are not counted. It walks the
// shard directories; cost is proportional to the cache size.
func (s *Store) Len() int {
	n := 0
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	for _, sh := range shards {
		if !sh.IsDir() || sh.Name() == quarantineDir {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if filepath.Ext(f.Name()) == ".json" {
				n++
			}
		}
	}
	return n
}
