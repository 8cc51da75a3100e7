package storage

import (
	"math/rand"
	"reflect"
	"testing"

	"ahead/internal/an"
)

// The bulk paths all run typed kernels behind one width dispatch. These
// tests hold each of them to the per-element definition - Get, then the
// scalar Code method, then compare - over every physical width pair.

var bulkKinds = []struct {
	kind Kind
	bits uint
}{{TinyInt, 8}, {ShortInt, 16}, {Int, 32}, {BigInt, 48}}

func randomColumn(t *testing.T, rng *rand.Rand, kind Kind, bits uint, n int) *Column {
	t.Helper()
	c, err := NewColumn("v", kind)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c.Append(rng.Uint64() >> (64 - bits))
	}
	return c
}

func bulkCodes(t *testing.T, bits uint) []*an.Code {
	t.Helper()
	var out []*an.Code
	for _, choose := range []CodeChooser{LargestCodeChooser, MinBFWCodeChooser(1), MinBFWCodeChooser(3)} {
		code, err := choose(bits)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, code)
	}
	return out
}

func TestBulkHardenSoftenCheckMatchPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range bulkKinds {
		for _, code := range bulkCodes(t, k.bits) {
			for _, n := range []int{0, 1, 7, 8, 9, 1000} {
				plain := randomColumn(t, rng, k.kind, k.bits, n)
				h, err := plain.Harden(code)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if h.Get(i) != code.Encode(plain.Get(i)) {
						t.Fatalf("%v n=%d: hardened row %d = %d, want %d", code, n, i, h.Get(i), code.Encode(plain.Get(i)))
					}
				}
				if code.CodeBits() <= MaxPackedBits {
					lanesMirrorColumn(t, h)
				}
				var want []uint64
				for _, r := range []int{0, 7, 8, n - 1} {
					if r >= 0 && r < n {
						h.Corrupt(r, 1<<uint(rng.Intn(int(code.CodeBits()))))
					}
				}
				for i := 0; i < n; i++ {
					if !code.IsValid(h.Get(i)) {
						want = append(want, uint64(i))
					}
				}
				got, err := h.CheckAll()
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%v n=%d: CheckAll = %v (%v), want %v", code, n, got, err, want)
				}
				soft, err := h.Soften()
				if err != nil {
					t.Fatal(err)
				}
				if soft.Kind() != k.kind || soft.Len() != n {
					t.Fatalf("%v n=%d: softened to %v x %d", code, n, soft.Kind(), soft.Len())
				}
				// A corrupted word may soften beyond the data domain; it is
				// stored truncated to the softened width, as setU64 would.
				trunc := ^uint64(0) >> (64 - 8*uint(soft.Width()))
				for i := 0; i < n; i++ {
					if soft.Get(i) != code.Decode(h.Get(i))&trunc {
						t.Fatalf("%v n=%d: softened row %d = %d, want %d", code, n, i, soft.Get(i), code.Decode(h.Get(i))&trunc)
					}
				}
				// The Δ kernel over an inner range leaves the rest of
				// dst alone and reports global positions.
				if n >= 9 {
					dst, _ := h.Soften()
					for i := 0; i < n; i++ {
						dst.setU64(i, 0)
					}
					for _, blocked := range []bool{false, true} {
						bad := h.CheckDecodeInto(dst, 3, n-1, blocked)
						var wantIn []uint64
						for _, p := range want {
							if p >= 3 && p < uint64(n-1) {
								wantIn = append(wantIn, p)
							}
						}
						if !reflect.DeepEqual(bad, wantIn) {
							t.Fatalf("%v n=%d blocked=%v: range Δ found %v, want %v", code, n, blocked, bad, wantIn)
						}
						if dst.Get(2) != 0 || dst.Get(n-1) != 0 || dst.Get(3) != soft.Get(3) || dst.Get(n-2) != soft.Get(n-2) {
							t.Fatalf("%v n=%d blocked=%v: range Δ wrote outside [3,%d) or decoded wrong", code, n, blocked, n-1)
						}
					}
				}
			}
		}
	}
}

// TestBulkReencodeMatchesPerElement covers the in-place same-width path
// and the copying path in both directions (wider and narrower words).
func TestBulkReencodeMatchesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	codes := []*an.Code{
		an.MustNew(29, 8),    // 13 bits, 2-byte words
		an.MustNew(233, 8),   // 16 bits, 2-byte words
		an.MustNew(32417, 8), // 23 bits, 4-byte words
	}
	for _, from := range codes {
		for _, to := range codes {
			if from == to {
				continue
			}
			plain := randomColumn(t, rng, TinyInt, 8, 777)
			h, err := plain.Harden(from)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]uint64, h.Len())
			for i := range want {
				want[i] = from.Reencode(h.Get(i), to)
			}
			re, err := h.Reencode(to)
			if err != nil {
				t.Fatal(err)
			}
			if re.Code() != to || (re == h) != (from.CodeBits() > 16 == (to.CodeBits() > 16)) {
				t.Fatalf("%v -> %v: code %v, in place %v", from, to, re.Code(), re == h)
			}
			for i, w := range want {
				if re.Get(i) != w || to.Decode(re.Get(i)) != plain.Get(i) {
					t.Fatalf("%v -> %v: row %d = %d, want %d", from, to, i, re.Get(i), w)
				}
			}
			if to.CodeBits() <= MaxPackedBits {
				lanesMirrorColumn(t, re)
			}
		}
	}
	h, _ := randomColumn(t, rng, TinyInt, 8, 4).Harden(codes[0])
	if _, err := h.Reencode(an.MustNew(61, 16)); err == nil {
		t.Fatal("re-encoding across data widths must fail")
	}
}

func TestBulkResidueMatchesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range bulkKinds {
		plain := randomColumn(t, rng, k.kind, k.bits, 1001)
		rc, err := plain.HardenResidue(11)
		if err != nil {
			t.Fatal(err)
		}
		code := rc.ResidueCode()
		for i := 0; i < rc.Len(); i++ {
			if rc.Get(i) != plain.Get(i) || uint64(rc.resCheck[i]) != code.Residue(plain.Get(i)) {
				t.Fatalf("%v: row %d value %d check %d", k.kind, i, rc.Get(i), rc.resCheck[i])
			}
		}
		for _, r := range []int{0, 500, 1000} {
			rc.Corrupt(r, 1<<uint(rng.Intn(int(k.bits))))
		}
		bad, err := rc.ResidueCheckAll()
		if err != nil || !reflect.DeepEqual(bad, []uint64{0, 500, 1000}) {
			t.Fatalf("%v: ResidueCheckAll = %v (%v)", k.kind, bad, err)
		}
		if bad := rc.ResidueCheckRange(1, 1000); !reflect.DeepEqual(bad, []uint64{500}) {
			t.Fatalf("%v: ResidueCheckRange(1, 1000) = %v", k.kind, bad)
		}
		dropped, err := rc.DropResidue()
		if err != nil || dropped.IsResidueHardened() || dropped.Len() != rc.Len() {
			t.Fatalf("%v: DropResidue: %v", k.kind, err)
		}
		dropped.setU64(1, 0)
		if rc.Get(1) != plain.Get(1) {
			t.Fatalf("%v: DropResidue shares storage with its source", k.kind)
		}
	}
}

// TestTableSlice: rows are validated once, up front, and gathered per
// width - in the given order, repeats included, packed mirrors rebuilt.
func TestTableSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tab := NewTable("t")
	for i, k := range bulkKinds {
		c := randomColumn(t, rng, k.kind, k.bits, 300)
		c.name = string(rune('a' + i))
		if err := tab.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.AddColumn(NewStrColumn("s", make([]string, 300))); err != nil {
		t.Fatal(err)
	}
	hard, err := tab.Harden(LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{299, 0, 7, 7, 150, 8}
	for _, src := range []*Table{tab, hard} {
		out, err := src.Slice(rows)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range src.Columns() {
			oc := out.MustColumn(c.Name())
			if oc.Len() != len(rows) || oc.Kind() != c.Kind() || oc.Width() != c.Width() || oc.Code() != c.Code() || oc.Dict() != c.Dict() {
				t.Fatalf("column %q changed shape in the slice", c.Name())
			}
			for i, r := range rows {
				if oc.Get(i) != c.Get(r) {
					t.Fatalf("column %q: slice row %d = %d, source row %d = %d", c.Name(), i, oc.Get(i), r, c.Get(r))
				}
			}
			if c.Packed() != nil {
				lanesMirrorColumn(t, oc)
			}
		}
		for _, bad := range [][]int{{0, -1}, {300}, {5, 1 << 40}} {
			if _, err := src.Slice(bad); err == nil {
				t.Fatalf("Slice(%v) must reject the out-of-range row", bad)
			}
		}
		if empty, err := src.Slice(nil); err != nil || empty.Rows() != 0 {
			t.Fatalf("empty slice: %v", err)
		}
	}
}

func TestSoftenedOverChecksTheBuffer(t *testing.T) {
	h, err := randomColumn(t, rand.New(rand.NewSource(9)), TinyInt, 8, 10).Harden(an.MustNew(233, 8))
	if err != nil {
		t.Fatal(err)
	}
	if h.SoftenedWidth() != 1 {
		t.Fatalf("SoftenedWidth = %d", h.SoftenedWidth())
	}
	buf := make([]uint8, 10)
	view, err := SoftenedOver(h, buf)
	if err != nil {
		t.Fatal(err)
	}
	if bad := h.CheckDecodeInto(view, 0, 10, true); len(bad) != 0 || view.IsHardened() || view.Kind() != TinyInt {
		t.Fatalf("Δ into a caller buffer: bad=%v kind=%v", bad, view.Kind())
	}
	for i := range buf {
		if uint64(buf[i]) != h.Value(i) {
			t.Fatalf("buffer row %d = %d, want %d", i, buf[i], h.Value(i))
		}
	}
	if _, err := SoftenedOver(h, make([]uint8, 9)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := SoftenedOver(h, make([]uint16, 10)); err == nil {
		t.Fatal("wrong-width buffer accepted")
	}
	plain, _ := h.Soften()
	if _, err := SoftenedOver(plain, buf); err == nil || plain.SoftenedWidth() != 0 {
		t.Fatal("unhardened column accepted")
	}
}
