package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// pb encodes protocol-buffer fields, enough to hand-build a profile.
type pb []byte

func (p *pb) key(num, wire int) { *p = binary.AppendUvarint(*p, uint64(num<<3|wire)) }

func (p *pb) uint(num int, v uint64) {
	p.key(num, 0)
	*p = binary.AppendUvarint(*p, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.key(num, 2)
	*p = binary.AppendUvarint(*p, uint64(len(b)))
	*p = append(*p, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(num, q)
}

func TestParseProfile(t *testing.T) {
	names := []string{
		"",
		"mtsim/internal/phy.(*Channel).Transmit", // 1
		"slices.SortFunc[go.shape.[]mtsim/internal/geo.Hit]",    // 2
		"mtsim/internal/sim.(*Scheduler).RunUntil",              // 3
		"runtime.gcBgMarkWorker",                                // 4
		"mtsim/internal/geo.(*Grid).WithinRangeHits",            // 5
		"runtime.mallocgc",                                      // 6
		"mtsim/internal/routing/aodv.(*Router).Receive",         // 7
		"mtsim/bench.(*tracer).run",                             // 8
		"mtsim/internal/sim.(*Pool[go.shape.struct {}]).Get[x]", // 9
	}
	var prof pb
	// Sample type, period and the like are fields the decoder skips.
	var st pb
	st.uint(1, 1)
	st.uint(2, 2)
	prof.bytes(1, st)
	prof.uint(9, 12345)

	addFunc := func(id uint64) {
		var f pb
		f.uint(1, id)
		f.uint(2, id) // function id i is named by string i
		f.uint(4, 0)
		prof.bytes(5, f)
	}
	for id := uint64(1); id < uint64(len(names)); id++ {
		addFunc(id)
	}
	// addLoc adds a location whose lines list fns innermost first: every
	// entry but the last was inlined into the next.
	addLoc := func(id uint64, fns ...uint64) {
		var l pb
		l.uint(1, id)
		l.uint(3, 0xdead)
		for _, fn := range fns {
			var line pb
			line.uint(1, fn)
			line.uint(2, 99)
			l.bytes(4, line)
		}
		prof.bytes(4, l)
	}
	addLoc(1, 2, 1) // SortFunc inlined into phy: not mtsim, then phy
	addLoc(2, 3)    // sim
	addLoc(3, 4)    // runtime only
	addLoc(4, 5, 1) // geo inlined into phy: the inlined frame wins
	addLoc(5, 6)    // runtime.mallocgc
	addLoc(6, 7)    // aodv
	addLoc(7, 8)    // the benchmark's own frame
	addLoc(8, 9)    // generic method of mtsim/internal/sim

	addSample := func(packed bool, count, nanos uint64, locs ...uint64) {
		var s pb
		if packed {
			s.packed(1, locs...)
			s.packed(2, count, nanos)
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
			s.uint(2, count)
			s.uint(2, nanos)
		}
		prof.bytes(2, s)
	}
	addSample(true, 3, 30, 1, 2) // phy
	addSample(true, 2, 20, 3)    // no mtsim frame: runtime
	addSample(true, 1, 10, 4, 2) // geo
	addSample(false, 4, 40, 5, 6, 2)
	addSample(false, 5, 50, 5, 7, 2)
	addSample(true, 6, 60, 8, 7)
	for _, s := range names {
		prof.bytes(6, []byte(s))
	}

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()
	p, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"phy": 3, "runtime": 2, "geo": 1, "aodv": 4, "trace": 5, "sim": 6}
	if p.samples != 21 {
		t.Errorf("samples = %d, want 21", p.samples)
	}
	for l, n := range want {
		if p.layerSamples[l] != n {
			t.Errorf("%s: %d samples, want %d", l, p.layerSamples[l], n)
		}
		if p.layerNanos[l] != 10*n {
			t.Errorf("%s: %d ns, want %d", l, p.layerNanos[l], 10*n)
		}
	}
	if len(p.layerSamples) != len(want) {
		t.Errorf("layers %v, want %v", p.layerSamples, want)
	}

	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
