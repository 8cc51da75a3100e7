package an

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestEncodeDecodeSlices(t *testing.T) {
	c := MustNew(233, 8) // restiny: 8-bit data in 16-bit code words
	rng := rand.New(rand.NewSource(3))
	src := make([]uint8, 1000)
	for i := range src {
		src[i] = uint8(rng.Uint32())
	}
	enc := make([]uint16, len(src))
	EncodeSlice(c, src, enc)
	encB := make([]uint16, len(src))
	EncodeSliceBlocked(c, src, encB)
	if !reflect.DeepEqual(enc, encB) {
		t.Fatal("blocked encode disagrees with scalar encode")
	}
	dec := make([]uint8, len(src))
	DecodeSlice(c, enc, dec)
	if !reflect.DeepEqual(src, dec) {
		t.Fatal("decode(encode(x)) != x")
	}
	decB := make([]uint8, len(src))
	DecodeSliceBlocked(c, enc, decB)
	if !reflect.DeepEqual(src, decB) {
		t.Fatal("blocked decode(encode(x)) != x")
	}
}

func TestCheckSliceFindsCorruption(t *testing.T) {
	c := MustNew(233, 8)
	src := make([]uint8, 101) // odd length exercises the tail loop
	for i := range src {
		src[i] = uint8(i * 7)
	}
	enc := make([]uint16, len(src))
	EncodeSlice(c, src, enc)

	if errs := CheckSlice(c, enc, nil); len(errs) != 0 {
		t.Fatalf("clean column flagged: %v", errs)
	}
	if errs := CheckSliceBlocked(c, enc, nil); len(errs) != 0 {
		t.Fatalf("clean column flagged (blocked): %v", errs)
	}

	// Corrupt three positions with single, double and triple flips - all
	// within A=233's guaranteed detection weight.
	enc[5] ^= 1 << 3
	enc[50] ^= 1<<2 | 1<<9
	enc[100] ^= 1<<0 | 1<<7 | 1<<13
	want := []uint64{5, 50, 100}
	if errs := CheckSlice(c, enc, nil); !reflect.DeepEqual(errs, want) {
		t.Fatalf("CheckSlice = %v, want %v", errs, want)
	}
	if errs := CheckSliceBlocked(c, enc, nil); !reflect.DeepEqual(errs, want) {
		t.Fatalf("CheckSliceBlocked = %v, want %v", errs, want)
	}
}

func TestCheckDecodeSlice(t *testing.T) {
	c := MustNew(29, 8)
	src := []uint8{0, 1, 2, 37, 255}
	enc := make([]uint16, len(src))
	EncodeSlice(c, src, enc)
	enc[2] ^= 1 << 4
	dec := make([]uint8, len(src))
	errs := CheckDecodeSlice(c, enc, dec, nil)
	if !reflect.DeepEqual(errs, []uint64{2}) {
		t.Fatalf("errs = %v, want [2]", errs)
	}
	for i, v := range src {
		if i == 2 {
			continue
		}
		if dec[i] != v {
			t.Fatalf("dec[%d] = %d, want %d", i, dec[i], v)
		}
	}
}

func TestReencodeSlice(t *testing.T) {
	c1 := MustNew(29, 8)
	c2 := MustNew(233, 8)
	src := []uint8{0, 1, 128, 255, 42}
	data := make([]uint16, len(src))
	EncodeSlice(c1, src, data)
	if err := ReencodeSlice(c1, c2, data); err != nil {
		t.Fatal(err)
	}
	for i, v := range src {
		if want := uint16(c2.Encode(uint64(v))); data[i] != want {
			t.Fatalf("reencoded[%d] = %d, want %d", i, data[i], want)
		}
	}
	if errs := CheckSlice(c2, data, nil); len(errs) != 0 {
		t.Fatalf("reencoded column flagged: %v", errs)
	}
	// Width mismatch propagates as an error.
	if err := ReencodeSlice(c1, MustNew(61, 16), data); err == nil {
		t.Fatal("expected width-mismatch error")
	}
}

func TestBlockedKernelsHandleShortSlices(t *testing.T) {
	c := MustNew(29, 8)
	for n := 0; n < Block*2+3; n++ {
		src := make([]uint8, n)
		for i := range src {
			src[i] = uint8(i)
		}
		enc := make([]uint16, n)
		EncodeSliceBlocked(c, src, enc)
		dec := make([]uint8, n)
		DecodeSliceBlocked(c, enc, dec)
		if !reflect.DeepEqual(src, dec) {
			t.Fatalf("n=%d: blocked round trip failed", n)
		}
		if errs := CheckSliceBlocked(c, enc, nil); len(errs) != 0 {
			t.Fatalf("n=%d: clean column flagged", n)
		}
		// One flip per position in turn: the blocked Δ must decode and
		// report exactly as the scalar Δ does, wherever the flip sits
		// relative to the block edges and the ragged tail.
		for bad := -1; bad < n; bad++ {
			if bad >= 0 {
				enc[bad] ^= 1 << 5
			}
			wantDec, gotDec := make([]uint8, n), make([]uint8, n)
			want := CheckDecodeSlice(c, enc, wantDec, nil)
			got := CheckDecodeSliceBlocked(c, enc, gotDec, nil)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotDec, wantDec) {
				t.Fatalf("n=%d flip@%d: blocked Δ %v %v, scalar Δ %v %v", n, bad, got, gotDec, want, wantDec)
			}
			if bad >= 0 {
				if len(got) != 1 || got[0] != uint64(bad) {
					t.Fatalf("n=%d flip@%d: reported %v", n, bad, got)
				}
				enc[bad] ^= 1 << 5
			}
		}
	}
}
