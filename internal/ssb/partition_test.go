package ssb

import (
	"testing"

	"ahead/internal/cluster"
	"ahead/internal/storage"
)

// TestReplicaSuiteDeterministic pins the replica contract: every
// replica of a slice builds the identical partition from (sf, seed,
// shard) alone, so the router may treat their partials as
// interchangeable. Two replicas of the same slice must agree
// column-for-column; a different slice must not.
func TestReplicaSuiteDeterministic(t *testing.T) {
	shard := cluster.ShardSpec{Index: 1, Count: 3}
	_, d0, err := NewShardSuite(0.005, 7, 1, shard, storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	_, d1, err := NewShardSuite(0.005, 7, 1, shard, storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	if d0.Lineorder.Rows() != d1.Lineorder.Rows() {
		t.Fatalf("replicas disagree on partition size: %d vs %d", d0.Lineorder.Rows(), d1.Lineorder.Rows())
	}
	sum := func(d *Data) uint64 {
		col, err := d.Lineorder.Column("lo_orderkey")
		if err != nil {
			t.Fatal(err)
		}
		var s uint64
		for i := 0; i < col.Len(); i++ {
			s += col.Value(i) * uint64(i+1)
		}
		return s
	}
	if sum(d0) != sum(d1) {
		t.Fatal("replicas of one slice must hold byte-identical fact partitions")
	}

	_, other, err := NewShardSuite(0.005, 7, 1, cluster.ShardSpec{Index: 2, Count: 3}, storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	if sum(other) == sum(d0) && other.Lineorder.Rows() == d0.Lineorder.Rows() {
		t.Fatal("distinct slices produced the same partition")
	}
}
