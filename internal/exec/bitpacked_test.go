package exec

import (
	"testing"

	"ahead/internal/storage"
)

func TestBitPackedBytesUndercutsByteAligned(t *testing.T) {
	db, err := NewDB(testTables(t), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	aligned := db.StorageBytes(Continuous)
	packed := db.BitPackedBytes()
	if packed >= aligned {
		t.Fatalf("bit-packed %d must undercut byte-aligned %d", packed, aligned)
	}
	// The tinyint column hardens with A=233 (16-bit code words): packed
	// and aligned agree there (100*16 bits = 200 bytes); the int column's
	// 14-bit values harden narrowed with A=63877 (30-bit code words in
	// 32-bit slots): packing saves 2 bits per value (100*30 bits -> 47
	// words -> 376 bytes).
	if packed != 200+376 {
		t.Fatalf("packed bytes = %d, want 576", packed)
	}
}
