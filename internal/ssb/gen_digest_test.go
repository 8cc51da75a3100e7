package ssb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ahead/internal/storage"
)

// columnDigest hashes everything Generate decided about one column: its
// name, kind and physical width, every stored value, and the strings
// behind a dictionary or heap column.
func columnDigest(t *testing.T, table string, c *storage.Column) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "%s.%s|%s|%d|%d|", table, c.Name(), c.Kind(), c.Width(), c.Len())
	var word [8]byte
	for i := 0; i < c.Len(); i++ {
		binary.LittleEndian.PutUint64(word[:], c.Get(i))
		h.Write(word[:])
	}
	if d := c.Dict(); d != nil {
		for _, v := range d.Values() {
			fmt.Fprintf(h, "%q", v)
		}
	}
	if c.Heap() != nil {
		for i := 0; i < c.Len(); i++ {
			s, err := c.Str(i)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%q", s)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDigestsPinned pins the generator's output: the digests
// below were taken from the commit before Generate reserved its row
// counts and Column.Append stopped regrowing per value, so any change to
// the rng call sequence, a column's kind or width, or a single value
// shows up here - per column, to say where.
func TestGenerateDigestsPinned(t *testing.T) {
	for _, tc := range []struct {
		sf   float64
		seed int64
		want string
	}{
		{0.01, 1, "9222f61c7bae45af44ace06dc3779d8d4ac9a6112c3d5c49ee3ede8c292e75b5"},
		{0.05, 7, "0e031ea6a0280cfee1f99988575b4f17e47ca0271fc5f8b8c9cd4ce3b9c0f828"},
	} {
		d, err := Generate(tc.sf, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, tab := range d.Tables() {
			for _, c := range tab.Columns() {
				lines = append(lines, tab.Name()+"."+c.Name()+" "+columnDigest(t, tab.Name(), c))
			}
		}
		sort.Strings(lines)
		sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("Generate(%v, %d): digest %s, want %s; per column:\n%s", tc.sf, tc.seed, got, tc.want, strings.Join(lines, "\n"))
		}
	}
}
