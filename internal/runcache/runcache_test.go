package runcache

import (
	"bytes"
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
	"strings"
	"testing"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/scenario"
	"mtsim/internal/sim"
)

func quickConfig() scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Nodes = 12
	cfg.Duration = 3 * sim.Second
	cfg.TCPStart = sim.Time(sim.Second)
	cfg.Seed = 11
	return cfg
}

func TestKeyDeterministicAndSeedSensitive(t *testing.T) {
	cfg := quickConfig()
	k1, err := Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("key not deterministic: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not hex sha256", k1)
	}
	cfg.Seed++
	k3, _ := Key(cfg)
	if k3 == k1 {
		t.Fatal("seed change did not change the key")
	}
	// The salt is part of the address: a behaviour-version bump must miss.
	k4, _ := KeySalted(quickConfig(), "mtsim-run/v999")
	if k4 == k1 {
		t.Fatal("salt change did not change the key")
	}
}

// richConfig fills every slice the encoder walks (Flows, Placement,
// Adversary.Nodes) and sets a non-zero adversary K and countermeasure, so
// its key covers non-empty slices of structs and of named ints as well
// as every leaf kind DefaultConfig already carries.
func richConfig() scenario.Config {
	cfg := quickConfig()
	cfg.Flows = []scenario.FlowSpec{{Src: 0, Dst: 5}, {Src: 3, Dst: 9}}
	cfg.Placement = []geo.Point{{X: 10, Y: 20}, {X: 250.5, Y: 0}, {X: 999, Y: 999}}
	cfg.Adversary = adversary.Spec{
		Model: adversary.ModelCoalition, K: 3,
		Nodes: []packet.NodeID{1, 2, 7}, DropRate: 0.25,
	}
	cfg.Countermeasure = countermeasure.Spec{
		Model: countermeasure.ModelShuffle, Depth: 4, Hold: 10 * sim.Millisecond,
	}
	return cfg
}

// TestKeyGolden pins the exact content addresses of two configurations.
// Every entry in an existing -cache-dir is named by these bytes, so any
// change to the canonical encoding that is not a deliberate
// SchemaVersion bump would silently orphan the whole cache; this test
// catches it. Both keys are salted with SchemaVersion mtsim-run/v6.
func TestKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  scenario.Config
		want string
	}{
		{"default", scenario.DefaultConfig(), "d6d8e7c0772f5c8ff08fbbab4f666800a8666170112f556c7ad2ee464fc078da"},
		{"rich", richConfig(), "0c174ff7d20b105d0fb2ea8a677b3041a06110fbe284f401a56f5dbaf5623408"},
	} {
		got, err := Key(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: key = %s, want %s (re-pin only in the change that bumps SchemaVersion, now %s)",
				tc.name, got, tc.want, SchemaVersion)
		}
	}
}

// mutate perturbs one leaf value in place and returns a human label, or ""
// if the kind is not a leaf (struct — recursed elsewhere).
func mutate(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1.5)
	case reflect.String:
		v.SetString(v.String() + "~mut")
	case reflect.Slice:
		// Appending one zero element changes the encoded length.
		v.Set(reflect.Append(v, reflect.New(v.Type().Elem()).Elem()))
	default:
		return false
	}
	return true
}

// leafPaths recursively enumerates every mutatable leaf of a struct value.
func leafPaths(v reflect.Value, path string, out *[]string) {
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			leafPaths(v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
		return
	}
	*out = append(*out, path)
}

// mutateAt walks to the leaf at the given dotted path and perturbs it.
func mutateAt(root reflect.Value, path string) bool {
	v := root
	for _, part := range strings.Split(path, ".")[1:] {
		v = v.FieldByName(part)
	}
	return mutate(v)
}

// TestEveryConfigFieldChangesKey is the exhaustive field-sensitivity
// guarantee: perturbing ANY leaf field of scenario.Config — including
// every nested protocol/MAC/TCP/adversary knob, present and future —
// must change the content address. Because the leaf enumeration is itself
// reflective, a newly added field shows up here automatically; if the
// canonical encoder cannot represent it, Key errors and this test fails,
// so no field can ever be silently omitted from the cache key.
func TestEveryConfigFieldChangesKey(t *testing.T) {
	base := quickConfig()
	baseKey, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}

	var paths []string
	leafPaths(reflect.ValueOf(base), "Config", &paths)
	if len(paths) < 40 {
		t.Fatalf("only %d leaves enumerated — reflection walk is broken", len(paths))
	}

	for _, path := range paths {
		cfg := quickConfig()
		if !mutateAt(reflect.ValueOf(&cfg).Elem(), path) {
			t.Fatalf("leaf %s has a kind the test cannot mutate — extend mutate()", path)
		}
		k, err := Key(cfg)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if k == baseKey {
			t.Errorf("mutating %s did not change the key — field omitted from hash", path)
		}
	}
}

func TestSliceContentSensitivity(t *testing.T) {
	// Beyond length: element values must be keyed too.
	a := quickConfig()
	a.Flows = []scenario.FlowSpec{{Src: 0, Dst: 1}}
	b := quickConfig()
	b.Flows = []scenario.FlowSpec{{Src: 0, Dst: 2}}
	ka, _ := Key(a)
	kb, _ := Key(b)
	if ka == kb {
		t.Fatal("flow endpoints not keyed")
	}
	c := quickConfig()
	c.Placement = []geo.Point{{X: 1, Y: 2}}
	d := quickConfig()
	d.Placement = []geo.Point{{X: 1, Y: 3}}
	kc, _ := Key(c)
	kd, _ := Key(d)
	if kc == kd {
		t.Fatal("placement coordinates not keyed")
	}
}

// TestCachedMetricsByteIdentical is the cache-correctness contract: what
// comes back from the store must be byte-for-byte the metrics a fresh run
// produces, across every protocol (floats, maps, nested slices included).
func TestCachedMetricsByteIdentical(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range scenario.AllProtocols() {
		cfg := quickConfig()
		cfg.Protocol = proto
		fresh, err := scenario.RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := store.Get(cfg); ok {
			t.Fatalf("%s: phantom hit on empty cache", proto)
		}
		if err := store.Put(cfg, fresh); err != nil {
			t.Fatal(err)
		}
		cached, ok := store.Get(cfg)
		if !ok {
			t.Fatalf("%s: miss after put", proto)
		}
		want, _ := json.Marshal(fresh)
		got, _ := json.Marshal(cached)
		if string(want) != string(got) {
			t.Fatalf("%s: cached metrics not byte-identical\nfresh:  %s\ncached: %s",
				proto, want, got)
		}
	}
	if store.Len() != len(scenario.AllProtocols()) {
		t.Fatalf("store holds %d entries, want %d", store.Len(), len(scenario.AllProtocols()))
	}
}

func TestCorruptAndMismatchedEntriesMiss(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Protocol = "MTS"
	m, err := scenario.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(cfg, m); err != nil {
		t.Fatal(err)
	}
	key, _ := Key(cfg)
	path := filepath.Join(dir, key[:2], key+".json")

	// Truncated JSON: must miss, not error.
	if err := os.WriteFile(path, []byte("{\"schema\": \"mts"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(cfg); ok {
		t.Fatal("corrupt entry served as hit")
	}

	// Entry from a different schema version: must miss.
	other, err := OpenSalted(dir, "mtsim-run/v0-old")
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Put(cfg, m); err != nil {
		t.Fatal(err)
	}
	// other's Put landed under other's key, so store still misses...
	if _, ok := store.Get(cfg); ok {
		t.Fatal("cross-salt hit")
	}
	// ...and even a doc claiming store's path but the wrong schema misses.
	if err := store.Put(cfg, m); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(raw), SchemaVersion, "mtsim-run/v0-old", 1)
	if err := os.WriteFile(path, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(cfg); ok {
		t.Fatal("schema-mismatched entry served as hit")
	}
}

func TestUnsupportedFieldKindFailsLoudly(t *testing.T) {
	// The encoder must reject kinds it cannot canonically represent
	// instead of skipping them (a skipped field would silently alias
	// distinct configurations to one cache entry).
	type bad struct{ M map[string]int }
	h := reflect.ValueOf(bad{M: map[string]int{"x": 1}})
	err := (&encoder{path: []byte("bad")}).encode(h)
	if err == nil || !strings.Contains(err.Error(), "cannot canonically encode bad.M (kind map)") {
		t.Fatalf("map field: err = %v", err)
	}
}

// referenceStream is the canonical encoding written the plain way: one
// string-built path per value and one small write per word. The encoder
// must emit exactly these bytes — a key that drifts from them orphans
// every existing cache entry.
func referenceStream(w *bytes.Buffer, v reflect.Value, path string) {
	word := func(x uint64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], x)
		w.Write(n[:])
	}
	str := func(s string) { word(uint64(len(s))); w.WriteString(s) }
	str(path)
	word(uint64(v.Kind()))
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			word(1)
		} else {
			word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		word(v.Uint())
	case reflect.Float32, reflect.Float64:
		word(math.Float64bits(v.Float()))
	case reflect.String:
		str(v.String())
	case reflect.Slice, reflect.Array:
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			referenceStream(w, v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Struct:
		word(uint64(v.NumField()))
		for i := 0; i < v.NumField(); i++ {
			referenceStream(w, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	default:
		panic("reference stream: unsupported kind " + v.Kind().String())
	}
}

// TestEncoderMatchesReferenceStream compares the encoder's stream with
// referenceStream byte for byte, on the default, quick and rich configs
// and on every single-leaf mutation of the rich one (so each field is
// seen at a non-default value), then checks that the key is the SHA-256
// of that stream.
func TestEncoderMatchesReferenceStream(t *testing.T) {
	cfgs := []scenario.Config{scenario.DefaultConfig(), quickConfig(), richConfig()}
	var paths []string
	leafPaths(reflect.ValueOf(richConfig()), "Config", &paths)
	for _, path := range paths {
		cfg := richConfig()
		if !mutateAt(reflect.ValueOf(&cfg).Elem(), path) {
			t.Fatalf("leaf %s has a kind the test cannot mutate — extend mutate()", path)
		}
		cfgs = append(cfgs, cfg)
	}
	const salt = "salt/v0"
	for i, cfg := range cfgs {
		var want bytes.Buffer
		want.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(salt))))
		want.WriteString(salt)
		referenceStream(&want, reflect.ValueOf(cfg), "Config")

		e := &encoder{buf: appendString(nil, salt), path: []byte("Config")}
		if err := e.encode(reflect.ValueOf(cfg)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.buf, want.Bytes()) {
			t.Fatalf("config %d: encoder stream (%d bytes) differs from the reference (%d bytes)",
				i, len(e.buf), want.Len())
		}
		sum := sha256.Sum256(want.Bytes())
		if k, _ := KeySalted(cfg, salt); k != hex.EncodeToString(sum[:]) {
			t.Fatalf("config %d: key %s is not the SHA-256 of the reference stream", i, k)
		}
	}
}

// TestKeyAllocs guards the key's cost: one boxed Config for the
// reflective walk and one result string, with the stream buffers reused.
func TestKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cfg := scenario.DefaultConfig()
	if _, err := KeySalted(cfg, SchemaVersion); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { KeySalted(cfg, SchemaVersion) }); n > 3 {
		t.Fatalf("KeySalted allocates %.0f times per call, want at most 3", n)
	}
}

func BenchmarkKey(b *testing.B) {
	cfg := scenario.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Key(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGet is one warm lookup: key, read, validate and decode.
func BenchmarkGet(b *testing.B) {
	store, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cfg := quickConfig()
	m, err := scenario.RunOne(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Put(cfg, m); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := store.Get(cfg); !ok {
			b.Fatal("warm lookup missed")
		}
	}
}

func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(shard, "abcdef.tmp123")
	if err := os.WriteFile(orphan, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(shard, "abcdef.json")
	if err := os.WriteFile(keep, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file survived Open")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatal("real entry removed by orphan sweep")
	}
}

// TestCorruptEntryQuarantined: a corrupt entry is moved aside on first
// sight — preserved under quarantine/ for post-mortems, excluded from
// Len, never re-tripped — and the slot is immediately writable again.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Protocol = "MTS"
	m, err := scenario.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(cfg, m); err != nil {
		t.Fatal(err)
	}
	key, _ := Key(cfg)
	path := filepath.Join(dir, key[:2], key+".json")
	garbage := []byte("{\"schema\": truncated mid-wr")
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := store.Get(cfg); ok {
		t.Fatal("corrupt entry served as hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry left in its shard after quarantine")
	}
	corpse := filepath.Join(dir, "quarantine", key+".json")
	kept, err := os.ReadFile(corpse)
	if err != nil {
		t.Fatalf("quarantined corpse missing: %v", err)
	}
	if string(kept) != string(garbage) {
		t.Fatal("quarantine altered the corrupt bytes")
	}
	if h := store.Health(); h.Quarantined != 1 || h.DegradedReads != 0 {
		t.Fatalf("health after quarantine: %+v", h)
	}
	if store.Len() != 0 {
		t.Fatalf("Len counts the quarantined corpse: %d", store.Len())
	}

	// The slot recovers: a fresh Put hits again, the corpse stays put.
	if _, ok := store.Get(cfg); ok {
		t.Fatal("phantom hit after quarantine")
	}
	if err := store.Put(cfg, m); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(cfg); !ok {
		t.Fatal("miss after re-put over a quarantined slot")
	}
	if store.Len() != 1 {
		t.Fatalf("Len = %d after re-put, want 1", store.Len())
	}
	if h := store.Health(); h.Quarantined != 1 {
		t.Fatalf("quarantine count moved without a new corpse: %+v", h)
	}
}

// TestStaleEntryLeftInPlace: entries from another schema version or
// architecture are valid data owned by someone else — they miss without
// being quarantined or touched.
func TestStaleEntryLeftInPlace(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Protocol = "MTS"
	m, err := scenario.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(cfg, m); err != nil {
		t.Fatal(err)
	}
	key, _ := Key(cfg)
	path := filepath.Join(dir, key[:2], key+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, doctor := range []func(string) string{
		func(s string) string { return strings.Replace(s, SchemaVersion, "mtsim-run/v0-old", 1) },
		func(s string) string { return strings.Replace(s, runtime.GOARCH, "pdp11", 1) },
	} {
		if err := os.WriteFile(path, []byte(doctor(string(raw))), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := store.Get(cfg); ok {
			t.Fatal("stale entry served as hit")
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("stale entry was moved or removed: %v", err)
		}
	}
	h := store.Health()
	if h.Quarantined != 0 {
		t.Fatalf("stale entries quarantined: %+v", h)
	}
	if h.StaleMisses != 2 {
		t.Fatalf("StaleMisses = %d, want 2", h.StaleMisses)
	}
}

// TestDegradedReadCounted: a lookup that fails for I/O reasons (here the
// entry path is a directory, so reads error without involving
// permissions) degrades to a plain miss and is counted, never fatal.
func TestDegradedReadCounted(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	key, _ := Key(cfg)
	if err := os.MkdirAll(filepath.Join(dir, key[:2], key+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(cfg); ok {
		t.Fatal("unreadable entry served as hit")
	}
	if h := store.Health(); h.DegradedReads != 1 || h.Quarantined != 0 {
		t.Fatalf("health after erroring read: %+v", h)
	}
	// Plain absence is a clean miss, not degradation.
	cfg2 := quickConfig()
	cfg2.Seed = 999
	if _, ok := store.Get(cfg2); ok {
		t.Fatal("phantom hit")
	}
	if h := store.Health(); h.DegradedReads != 1 {
		t.Fatalf("clean miss counted as degraded: %+v", h)
	}
}

// TestEntryPathMatchesLayout pins EntryPath to the on-disk layout Get
// and Put use.
func TestEntryPathMatchesLayout(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	key, _ := Key(cfg)
	p, err := store.EntryPath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, key[:2], key+".json"); p != want {
		t.Fatalf("EntryPath %q, want %q", p, want)
	}
}

// TestMalformedKeysNeverReachTheFilesystem pins the store's key gate:
// anything that is not a 64-digit lowercase-hex content address must be a
// plain miss — never sliced (a sub-2-byte key used to panic in path),
// never joined into a path (traversal), and above all never quarantined:
// readValidated moves invalid entries aside with os.Rename, which for a
// traversal key would move an arbitrary reachable *.json file out from
// under its owner.
func TestMalformedKeysNeverReachTheFilesystem(t *testing.T) {
	parent := t.TempDir()
	store, err := Open(filepath.Join(parent, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	// A victim outside the cache directory whose content fails entry
	// validation — exactly the file an ungated quarantine would move.
	victim := filepath.Join(parent, "victim.json")
	if err := os.WriteFile(victim, []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	// filepath.Join(dir, key[:2], key+".json") for this key resolves to
	// parent/victim.json — one level above the cache root.
	traversal := "zz/../../../victim"
	for _, key := range []string{traversal, "", "a", "zz", strings.Repeat("A", 64), strings.Repeat("g", 64)} {
		if _, ok := store.readValidated(key); ok {
			t.Fatalf("readValidated(%q) accepted a malformed key", key)
		}
	}
	// The victim was neither served nor quarantined.
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("victim file disturbed by a traversal lookup: %v", err)
	}
	if _, err := os.Stat(filepath.Join(store.Dir(), quarantineDir)); !os.IsNotExist(err) {
		t.Fatal("a malformed key created the quarantine directory")
	}
	// And real addresses still pass the gate.
	real, err := Key(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !validKey(real) {
		t.Fatalf("validKey rejected a genuine content address %q", real)
	}
}
