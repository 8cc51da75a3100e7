package storage

import (
	"testing"

	"ahead/internal/an"
)

func TestKindProperties(t *testing.T) {
	cases := []struct {
		k        Kind
		str      string
		hardened bool
		bits     uint
		width    int
	}{
		{TinyInt, "tinyint", false, 8, 1},
		{ShortInt, "shortint", false, 16, 2},
		{Int, "int", false, 32, 4},
		{BigInt, "bigint", false, 64, 8},
		{ResTiny, "restiny", true, 8, 0},
		{ResShort, "resshort", true, 16, 0},
		{ResInt, "resint", true, 32, 0},
		{ResBig, "resbig", true, 48, 0},
		{Str, "string", false, 0, 0},
	}
	for _, tc := range cases {
		if tc.k.String() != tc.str {
			t.Errorf("%v: name %q, want %q", tc.k, tc.k.String(), tc.str)
		}
		if tc.k.IsHardened() != tc.hardened {
			t.Errorf("%v: hardened %v", tc.k, tc.k.IsHardened())
		}
		if tc.k.DataBits() != tc.bits {
			t.Errorf("%v: bits %d, want %d", tc.k, tc.k.DataBits(), tc.bits)
		}
		if tc.k.NaturalWidth() != tc.width {
			t.Errorf("%v: width %d, want %d", tc.k, tc.k.NaturalWidth(), tc.width)
		}
	}
}

func TestKindMapping(t *testing.T) {
	pairs := [][2]Kind{{TinyInt, ResTiny}, {ShortInt, ResShort}, {Int, ResInt}, {BigInt, ResBig}}
	for _, p := range pairs {
		h, err := p[0].Hardened()
		if err != nil || h != p[1] {
			t.Errorf("%v.Hardened() = %v, %v", p[0], h, err)
		}
		s, err := p[1].Softened()
		if err != nil || s != p[0] {
			t.Errorf("%v.Softened() = %v, %v", p[1], s, err)
		}
	}
	if _, err := Str.Hardened(); err == nil {
		t.Error("Str.Hardened must error")
	}
	if _, err := Int.Softened(); err == nil {
		t.Error("Int.Softened must error")
	}
}

func TestKindForBits(t *testing.T) {
	for _, tc := range []struct {
		bits uint
		want Kind
	}{{1, TinyInt}, {8, TinyInt}, {9, ShortInt}, {16, ShortInt}, {17, Int}, {32, Int}, {33, BigInt}, {64, BigInt}} {
		got, err := KindForBits(tc.bits)
		if err != nil || got != tc.want {
			t.Errorf("KindForBits(%d) = %v, %v; want %v", tc.bits, got, err, tc.want)
		}
	}
	if _, err := KindForBits(0); err == nil {
		t.Error("KindForBits(0) must error")
	}
	if _, err := KindForBits(65); err == nil {
		t.Error("KindForBits(65) must error")
	}
}

func TestDictBasics(t *testing.T) {
	d := NewDict([]string{"EUROPE", "ASIA", "AMERICA", "ASIA", "AFRICA", "MIDDLE EAST"})
	if d.Size() != 5 {
		t.Fatalf("size = %d, want 5 (duplicates removed)", d.Size())
	}
	// Codes are sorted, so order is AFRICA < AMERICA < ASIA < EUROPE < MIDDLE EAST.
	c, ok := d.Code("AFRICA")
	if !ok || c != 0 {
		t.Errorf("Code(AFRICA) = %d, %v", c, ok)
	}
	if _, ok := d.Code("ANTARCTICA"); ok {
		t.Error("unknown value must not resolve")
	}
	v, err := d.Value(3)
	if err != nil || v != "EUROPE" {
		t.Errorf("Value(3) = %q, %v", v, err)
	}
	if _, err := d.Value(99); err == nil {
		t.Error("out-of-range code must error")
	}
	if d.Bytes() <= 0 {
		t.Error("dictionary must account its heap bytes")
	}
}

func TestDictRanges(t *testing.T) {
	var brands []string
	for i := 1; i <= 9; i++ {
		brands = append(brands, "MFGR#220"+string(rune('0'+i)))
	}
	brands = append(brands, "MFGR#2301", "MFGR#1101")
	d := NewDict(brands)
	lo, hi, ok := d.CodeRange("MFGR#2201", "MFGR#2208")
	if !ok || hi-lo != 7 {
		t.Errorf("CodeRange = [%d,%d] ok=%v, want 8 codes", lo, hi, ok)
	}
	lo, hi, ok = d.PrefixRange("MFGR#22")
	if !ok || hi-lo != 8 {
		t.Errorf("PrefixRange(MFGR#22) = [%d,%d] ok=%v, want 9 codes", lo, hi, ok)
	}
	if _, _, ok := d.CodeRange("ZZZ", "ZZZZ"); ok {
		t.Error("empty range must report !ok")
	}
	if _, _, ok := d.PrefixRange("XX"); ok {
		t.Error("unmatched prefix must report !ok")
	}
}

func TestColumnAppendGetWidths(t *testing.T) {
	for _, kind := range []Kind{TinyInt, ShortInt, Int, BigInt} {
		c, err := NewColumn("c", kind)
		if err != nil {
			t.Fatal(err)
		}
		max := uint64(1)<<kind.DataBits() - 1
		if kind == BigInt {
			max = ^uint64(0)
		}
		for _, v := range []uint64{0, 1, max / 2, max} {
			c.Append(v)
		}
		if c.Len() != 4 {
			t.Fatalf("%v: len %d", kind, c.Len())
		}
		if c.Bytes() != 4*kind.NaturalWidth() {
			t.Fatalf("%v: bytes %d", kind, c.Bytes())
		}
		if got := c.Get(3); got != max {
			t.Fatalf("%v: Get(3) = %d, want %d", kind, got, max)
		}
		if got := c.Value(3); got != max {
			t.Fatalf("%v: Value(3) = %d, want %d", kind, got, max)
		}
	}
}

func TestNewColumnRejectsSpecialKinds(t *testing.T) {
	if _, err := NewColumn("x", ResTiny); err == nil {
		t.Error("hardened kind must be rejected")
	}
	if _, err := NewColumn("x", Str); err == nil {
		t.Error("Str kind must be rejected")
	}
}

func TestHardenSoftenColumn(t *testing.T) {
	c, _ := NewColumn("qty", TinyInt)
	for v := uint64(0); v < 256; v++ {
		c.Append(v)
	}
	code := an.MustNew(233, 8)
	h, err := c.Harden(code)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind() != ResTiny || h.Width() != 2 {
		t.Fatalf("hardened kind=%v width=%d, want restiny/2", h.Kind(), h.Width())
	}
	if !h.IsHardened() || h.Code() != code {
		t.Fatal("hardened column must carry its code")
	}
	if h.Bytes() != 2*c.Bytes() {
		t.Fatalf("restiny bytes = %d, want doubled %d", h.Bytes(), 2*c.Bytes())
	}
	for i := 0; i < 256; i++ {
		if h.Value(i) != c.Get(i) {
			t.Fatalf("softened value at %d differs", i)
		}
	}
	if errs, err := h.CheckAll(); err != nil || len(errs) != 0 {
		t.Fatalf("clean hardened column: errs=%v err=%v", errs, err)
	}
	s, err := h.Soften()
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != TinyInt || s.Width() != 1 {
		t.Fatalf("softened kind=%v width=%d", s.Kind(), s.Width())
	}
	for i := 0; i < 256; i++ {
		if s.Get(i) != c.Get(i) {
			t.Fatalf("soften(harden) differs at %d", i)
		}
	}
	// Double-hardening and softening unprotected columns are errors.
	if _, err := h.Harden(code); err == nil {
		t.Error("double hardening must error")
	}
	if _, err := c.Soften(); err == nil {
		t.Error("softening an unprotected column must error")
	}
	if _, err := c.CheckAll(); err == nil {
		t.Error("CheckAll on unprotected column must error")
	}
}

func TestHardenedColumnDetectsCorruption(t *testing.T) {
	c, _ := NewColumn("v", ShortInt)
	for v := uint64(0); v < 1000; v++ {
		c.Append(v * 13)
	}
	h, err := c.Harden(an.MustNew(63877, 16))
	if err != nil {
		t.Fatal(err)
	}
	h.Corrupt(123, 1<<7|1<<19)
	h.Corrupt(999, 1<<0)
	errs, err := h.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 2 || errs[0] != 123 || errs[1] != 999 {
		t.Fatalf("CheckAll = %v, want [123 999]", errs)
	}
}

func TestHardenedAppendAndSet(t *testing.T) {
	c, _ := NewColumn("v", TinyInt)
	c.Append(10)
	h, _ := c.Harden(an.MustNew(29, 8))
	h.Append(20)
	h.Set(0, 11)
	if h.Value(0) != 11 || h.Value(1) != 20 {
		t.Fatalf("values = %d,%d", h.Value(0), h.Value(1))
	}
	if errs, _ := h.CheckAll(); len(errs) != 0 {
		t.Fatal("UDI operations must keep the column valid")
	}
}

func TestStrColumn(t *testing.T) {
	vals := []string{"ASIA", "EUROPE", "ASIA", "AMERICA"}
	c := NewStrColumn("region", vals)
	if c.Kind() != Str || c.Dict() == nil || c.Len() != 4 {
		t.Fatal("bad string column")
	}
	for i, v := range vals {
		got, err := c.Str(i)
		if err != nil || got != v {
			t.Fatalf("Str(%d) = %q, %v", i, got, err)
		}
	}
	// Harden the dictionary codes; strings still resolve.
	h, err := c.Harden(an.MustNew(233, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		got, err := h.Str(i)
		if err != nil || got != v {
			t.Fatalf("hardened Str(%d) = %q, %v", i, got, err)
		}
	}
	ic, _ := NewColumn("i", Int)
	if _, err := ic.Str(0); err == nil {
		t.Error("Str on non-dictionary column must error")
	}
}

func TestColumnReencode(t *testing.T) {
	c, _ := NewColumn("v", TinyInt)
	for v := uint64(0); v < 256; v++ {
		c.Append(v)
	}
	c1 := an.MustNew(29, 8)   // 13-bit code: width 2
	c2 := an.MustNew(233, 8)  // 16-bit code: width 2 (same physical width)
	c3 := an.MustNew(1939, 8) // 19-bit code: width 4
	h, _ := c.Harden(c1)
	same, err := h.Reencode(c2)
	if err != nil {
		t.Fatal(err)
	}
	if same != h {
		t.Fatal("same-width reencode must be in place")
	}
	if h.Code() != c2 {
		t.Fatal("code must be swapped")
	}
	for i := 0; i < 256; i++ {
		if h.Value(i) != uint64(i) {
			t.Fatalf("value %d corrupted by reencode", i)
		}
	}
	wider, err := h.Reencode(c3)
	if err != nil {
		t.Fatal(err)
	}
	if wider == h || wider.Width() != 4 {
		t.Fatalf("width-changing reencode must copy (width %d)", wider.Width())
	}
	if errs, _ := wider.CheckAll(); len(errs) != 0 {
		t.Fatal("reencoded column must be valid")
	}
	if _, err := c.Reencode(c2); err == nil {
		t.Error("reencode of unprotected column must error")
	}
}

func TestTableBasics(t *testing.T) {
	tb := NewTable("lineorder")
	qty, _ := NewColumn("quantity", TinyInt)
	price, _ := NewColumn("price", Int)
	for i := uint64(0); i < 100; i++ {
		qty.Append(i % 50)
		price.Append(i * 100)
	}
	if err := tb.AddColumn(qty); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddColumn(price); err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 100 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	if tb.Bytes() != 100*1+100*4 {
		t.Fatalf("bytes = %d", tb.Bytes())
	}
	if _, err := tb.Column("quantity"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Column("missing"); err == nil {
		t.Error("missing column must error")
	}
	if err := tb.AddColumn(qty); err == nil {
		t.Error("duplicate column must error")
	}
	short, _ := NewColumn("short", TinyInt)
	if err := tb.AddColumn(short); err == nil {
		t.Error("length mismatch must error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustColumn must panic on missing name")
			}
		}()
		tb.MustColumn("nope")
	}()
}

func TestTableHardenAndReplicate(t *testing.T) {
	tb := NewTable("t")
	qty, _ := NewColumn("qty", TinyInt)
	price, _ := NewColumn("price", Int)
	region := NewStrColumn("region", []string{"ASIA", "EUROPE", "ASIA"})
	for i := uint64(0); i < 3; i++ {
		qty.Append(i)
		price.Append(i * 1000)
	}
	for _, c := range []*Column{qty, price, region} {
		if err := tb.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tb.Harden(LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows() != 3 {
		t.Fatalf("hardened rows = %d", h.Rows())
	}
	// restiny and the dictionary codes double; price's values occupy 11
	// bits, so it hardens narrowed into 32-bit words instead of doubling;
	// the dictionary is shared and counted once on each side.
	if got, want := h.Bytes()-region.Dict().Bytes(), 2*qty.Bytes()+price.Bytes()+2*region.Bytes(); got != want {
		t.Fatalf("hardened bytes = %d, want %d", got, want)
	}
	for _, c := range h.Columns() {
		if !c.IsHardened() {
			t.Fatalf("column %s not hardened", c.Name())
		}
		if errs, _ := c.CheckAll(); len(errs) != 0 {
			t.Fatalf("column %s invalid after hardening", c.Name())
		}
	}
	// The hardened quantity column must use the strongest restiny code.
	if got := h.MustColumn("qty").Code().A(); got != 233 {
		t.Fatalf("qty hardened with A=%d, want 233", got)
	}

	r, err := tb.Replicate()
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes() != tb.Bytes() || r.Rows() != tb.Rows() {
		t.Fatal("replica must match")
	}
	// Replicas are independent memory.
	r.MustColumn("qty").Set(0, 42)
	if tb.MustColumn("qty").Value(0) == 42 {
		t.Fatal("replica mutation leaked into the original")
	}
}

func TestMinBFWCodeChooser(t *testing.T) {
	choose := MinBFWCodeChooser(2)
	c, err := choose(8)
	if err != nil || c.A() != 29 {
		t.Fatalf("chooser(8) = %v, %v; want A=29", c, err)
	}
	c, err = choose(16)
	if err != nil || c.A() != 61 {
		t.Fatalf("chooser(16) = %v, %v; want A=61", c, err)
	}
	if _, err := LargestCodeChooser(50); err == nil {
		t.Error("LargestCodeChooser beyond 48 bits must error")
	}
	wide, err := LargestCodeChooser(48)
	if err != nil || wide.A() != 32417 {
		t.Fatalf("48-bit chooser: %v, %v", wide, err)
	}
}
