package ops

import (
	"reflect"
	"testing"

	"ahead/internal/an"
)

func TestCountGrouped(t *testing.T) {
	gids := []uint32{0, 1, 0, ^uint32(0), 1, 1}
	plain, err := CountGrouped(gids, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Vals, []uint64{2, 3}) {
		t.Fatalf("counts %v", plain.Vals)
	}
	code := an.MustNew(32417, 32)
	hard, err := CountGrouped(gids, 2, code)
	if err != nil {
		t.Fatal(err)
	}
	if hard.Value(0) != 2 || hard.Value(1) != 3 {
		t.Fatalf("hardened counts %d/%d", hard.Value(0), hard.Value(1))
	}
	if _, ok := code.Check(hard.Vals[0]); !ok {
		t.Fatal("hardened count must be a valid code word")
	}
	if _, err := CountGrouped([]uint32{5}, 2, nil); err == nil {
		t.Error("out-of-range gid must error")
	}
}
