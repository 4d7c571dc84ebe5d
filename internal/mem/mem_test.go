package mem

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestLineAlignment(t *testing.T) {
	if got := Addr(0x12345).Line(); got != 0x12340 {
		t.Fatalf("Line = %#x, want 0x12340", got)
	}
	if got := Addr(0x12340).Line(); got != 0x12340 {
		t.Fatalf("aligned Line = %#x", got)
	}
}

func TestKindSourceStrings(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatalf("kind strings wrong")
	}
	if C2M.String() != "C2M" || P2M.String() != "P2M" {
		t.Fatalf("source strings wrong")
	}
}

func TestPoolReleaseZeroesAndReuses(t *testing.T) {
	var p Pool
	r := p.Get()
	r.Addr, r.Kind, r.Source, r.Origin = 0x40, Write, P2M, 3
	r.TAlloc, r.TDone = 10, 20
	r.Done = func(*Request) {}
	r.Notify = func() {}
	r.MapCoord(MustMapper(DefaultMapperConfig()))
	r.Release()
	// DeepEqual treats funcs as equal only when both are nil.
	if !reflect.DeepEqual(*r, Request{pool: &p}) {
		t.Fatalf("released request not zeroed: %+v", *r)
	}
	if got := p.Get(); got != r {
		t.Fatalf("Get returned %p, want the released %p", got, r)
	}
	if fresh := p.Get(); fresh == r {
		t.Fatalf("a request in use was handed out twice")
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	var p Pool
	r := p.Get()
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("second Release did not panic")
		}
	}()
	r.Release()
}

func TestReleaseUnpooledIsNoop(t *testing.T) {
	r := &Request{Addr: 0x80, TAlloc: 5}
	r.Hold()
	r.Release()
	r.Release()
	if r.Addr != 0x80 || r.TAlloc != 5 {
		t.Fatalf("Release changed an unpooled request: %+v", *r)
	}
}

func TestHoldDelaysReturn(t *testing.T) {
	var p Pool
	r := p.Get()
	r.Addr = 0xc0
	r.Hold()
	r.Release()
	if r.Addr != 0xc0 {
		t.Fatalf("request zeroed while still held")
	}
	if other := p.Get(); other == r {
		t.Fatalf("held request handed out again")
	}
	r.Release()
	if r.Addr != 0 {
		t.Fatalf("last Release did not zero the request")
	}
	if got := p.Get(); got != r {
		t.Fatalf("last Release did not return the request to its pool")
	}
}

func TestRequestLatency(t *testing.T) {
	r := &Request{TAlloc: 100, TDone: 170}
	if r.Latency() != 70 {
		t.Fatalf("Latency = %d, want 70", r.Latency())
	}
}

func TestMapperRejectsNonPowerOfTwo(t *testing.T) {
	bad := []MapperConfig{
		{Channels: 3, Banks: 32, RowBytes: 8192},
		{Channels: 2, Banks: 30, RowBytes: 8192},
		{Channels: 2, Banks: 32, RowBytes: 8000},
		{Channels: 0, Banks: 32, RowBytes: 8192},
	}
	for _, cfg := range bad {
		if _, err := NewMapper(cfg); err == nil {
			t.Errorf("NewMapper(%+v) accepted invalid config", cfg)
		}
	}
}

func TestMapperChannelInterleave(t *testing.T) {
	m := MustMapper(DefaultMapperConfig())
	// Consecutive cachelines alternate channels (64B interleave).
	for i := 0; i < 16; i++ {
		c := m.Map(Addr(i * LineSize))
		if c.Channel != i%2 {
			t.Fatalf("line %d on channel %d, want %d", i, c.Channel, i%2)
		}
	}
}

func TestMapperRowLocality(t *testing.T) {
	m := MustMapper(DefaultMapperConfig())
	// Within one channel, a row's worth of consecutive lines share bank+row.
	first := m.Map(0)
	for i := 0; i < m.RowLines(); i++ {
		// Lines on channel 0 are every other line.
		c := m.Map(Addr(i * 2 * LineSize))
		if c.Channel != 0 {
			t.Fatalf("expected channel 0")
		}
		if c.Bank != first.Bank || c.Row != first.Row {
			t.Fatalf("line %d left the row: %+v vs %+v", i, c, first)
		}
	}
	// The next line starts a new (bank, row).
	next := m.Map(Addr(m.RowLines() * 2 * LineSize))
	if next.Bank == first.Bank && next.Row == first.Row {
		t.Fatalf("row boundary not respected")
	}
}

func TestMapperXORSpreadsRows(t *testing.T) {
	m := MustMapper(DefaultMapperConfig())
	// Same bank bits, different rows: XOR hash should map many distinct rows
	// of one "bank slot" onto different physical banks.
	banks := map[int]bool{}
	rowStride := Addr(m.RowLines()) * LineSize * Addr(m.Channels()) * Addr(m.Banks())
	for i := 0; i < 64; i++ {
		c := m.Map(Addr(i) * rowStride)
		banks[c.Bank] = true
	}
	if len(banks) < 16 {
		t.Fatalf("XOR hash spread %d rows over only %d banks", 64, len(banks))
	}
}

func TestMapperNoXOR(t *testing.T) {
	cfg := DefaultMapperConfig()
	cfg.XORRowIntoBank = false
	m := MustMapper(cfg)
	rowStride := Addr(m.RowLines()) * LineSize * Addr(m.Channels()) * Addr(m.Banks())
	for i := 0; i < 16; i++ {
		c := m.Map(Addr(i) * rowStride)
		if c.Bank != 0 {
			t.Fatalf("without XOR, aligned rows should collide on bank 0, got %d", c.Bank)
		}
	}
}

// Property: Map is injective on distinct (channel,bank,row,column) tuples —
// i.e., two different lines never produce identical full coordinates
// including the column. Equivalently, decoding is lossless: channel, bank^xor,
// row, and column bits reconstruct the line index.
func TestMapperLossless(t *testing.T) {
	m := MustMapper(DefaultMapperConfig())
	f := func(rawA, rawB uint32) bool {
		a, b := Addr(rawA)*LineSize, Addr(rawB)*LineSize
		if a == b {
			return true
		}
		ca, cb := m.Map(a), m.Map(b)
		colA := (uint64(a) / LineSize >> 1) & uint64(m.RowLines()-1)
		colB := (uint64(b) / LineSize >> 1) & uint64(m.RowLines()-1)
		// Full coordinates must differ for different lines.
		return !(ca == cb && colA == colB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: coordinates are always within range.
func TestMapperRanges(t *testing.T) {
	m := MustMapper(DefaultMapperConfig())
	f := func(raw uint64) bool {
		c := m.Map(Addr(raw))
		return c.Channel >= 0 && c.Channel < m.Channels() &&
			c.Bank >= 0 && c.Bank < m.Banks() && c.Row >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMapperSingleChannel(t *testing.T) {
	m := MustMapper(MapperConfig{Channels: 1, Banks: 16, RowBytes: 8192, XORRowIntoBank: true})
	for i := 0; i < 100; i++ {
		if c := m.Map(Addr(i * LineSize)); c.Channel != 0 {
			t.Fatalf("single channel mapper produced channel %d", c.Channel)
		}
	}
	if m.Banks() != 16 || m.RowLines() != 128 {
		t.Fatalf("geometry wrong: banks=%d rowlines=%d", m.Banks(), m.RowLines())
	}
}
