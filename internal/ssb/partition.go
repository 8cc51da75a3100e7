package ssb

import (
	"fmt"

	"ahead/internal/cluster"
	"ahead/internal/exec"
	"ahead/internal/storage"
)

// Partition returns the shard-local view of the generated data: the
// lineorder fact table reduced to the rows whose lo_orderkey hashes to
// the shard, dimensions untouched (replicated on every shard). Every
// shard calls Generate with the same (sf, seed) and slices its own
// partition, so the cluster's union of fact rows is exactly the
// single-node table and all shards share identical dimension
// dictionaries - the precondition for merging dictionary-coded group
// keys at the router.
//
// Partitioning hashes lo_orderkey (cluster.Hash64), co-locating the
// line items of one order the way a distributed loader would.
func Partition(d *Data, shard cluster.ShardSpec) (*Data, error) {
	if !shard.Sharded() {
		return d, nil
	}
	key, err := d.Lineorder.Column("lo_orderkey")
	if err != nil {
		return nil, fmt.Errorf("ssb: partition: %w", err)
	}
	n := key.Len()
	rows := make([]int, 0, n/shard.Count+1)
	for i := 0; i < n; i++ {
		if cluster.AssignShard(key.Value(i), shard.Count) == shard.Index {
			rows = append(rows, i)
		}
	}
	lo, err := d.Lineorder.Slice(rows)
	if err != nil {
		return nil, err
	}
	return &Data{
		Lineorder: lo,
		Date:      d.Date,
		Customer:  d.Customer,
		Supplier:  d.Supplier,
		Part:      d.Part,
	}, nil
}

// NewShardSuite is NewSuite restricted to one shard's partition (the
// zero ShardSpec: the whole data set) under an explicit hardening policy
// - the Figure 8 sweep passes storage.MinBFWCodeChooser, and the
// adaptive-serving path starts every column at the weakest published
// code and lets the controller climb from there. The full data set is
// generated deterministically, the fact table sliced, and the per-mode
// physical storage (replicas, hardened tables) built over the slice
// only - a shard pays storage for its own rows plus the replicated
// dimensions. Every replica of a slice runs this identical pipeline, so
// any replica's AN-encoded partial is byte-interchangeable with its
// peers' and the router may merge whichever answers first.
func NewShardSuite(sf float64, seed int64, runs int, shard cluster.ShardSpec, choose storage.CodeChooser) (*Suite, *Data, error) {
	data, err := Generate(sf, seed)
	if err != nil {
		return nil, nil, err
	}
	if data, err = Partition(data, shard); err != nil {
		return nil, nil, err
	}
	db, err := exec.NewDB(data.Tables(), choose)
	if err != nil {
		return nil, nil, err
	}
	if runs < 1 {
		runs = 1
	}
	return &Suite{DB: db, Runs: runs, Warmup: 1}, data, nil
}
