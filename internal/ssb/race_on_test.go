//go:build race

package ssb

// raceEnabled gates the arena steady-state budgets: under -race
// sync.Pool drops a share of every Put on purpose, so pooled buffers are
// reallocated and the byte and object counts are not the product's.
const raceEnabled = true
