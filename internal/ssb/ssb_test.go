package ssb

import (
	"testing"

	"ahead/internal/exec"
	"ahead/internal/ops"
	"ahead/internal/storage"
)

func genSmall(t *testing.T) *Data {
	t.Helper()
	d, err := Generate(0.005, 42)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func smallDB(t *testing.T) *exec.DB {
	t.Helper()
	d := genSmall(t)
	db, err := exec.NewDB(d.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGenerateCardinalities(t *testing.T) {
	d := genSmall(t)
	rows := d.Rows()
	// Seven calendar years 1992-1998 with the 1992 and 1996 leap days;
	// dbgen's nominal 2556 omits one day.
	if rows["date"] != 2557 {
		t.Errorf("date rows = %d, want 2557 (7 years)", rows["date"])
	}
	if rows["lineorder"] != 30000 {
		t.Errorf("lineorder rows = %d, want 30000", rows["lineorder"])
	}
	if rows["customer"] != 150 || rows["supplier"] != 50 {
		t.Errorf("customer/supplier rows = %d/%d", rows["customer"], rows["supplier"])
	}
	// Dictionaries have the SSB cardinalities.
	if n := d.Customer.MustColumn("c_region").Dict().Size(); n != 5 {
		t.Errorf("c_region dictionary size %d, want 5", n)
	}
	if n := d.Customer.MustColumn("c_nation").Dict().Size(); n > 25 {
		t.Errorf("c_nation dictionary size %d, want <= 25", n)
	}
	if n := d.Part.MustColumn("p_mfgr").Dict().Size(); n != 5 {
		t.Errorf("p_mfgr dictionary size %d, want 5", n)
	}
	if n := d.Part.MustColumn("p_category").Dict().Size(); n != 25 {
		t.Errorf("p_category dictionary size %d, want 25", n)
	}
	if n := d.Part.MustColumn("p_brand1").Dict().Size(); n > 1000 {
		t.Errorf("p_brand1 dictionary size %d, want <= 1000", n)
	}
	// Value invariants the queries rely on.
	rev := d.Lineorder.MustColumn("lo_revenue")
	cost := d.Lineorder.MustColumn("lo_supplycost")
	price := d.Lineorder.MustColumn("lo_extendedprice")
	disc := d.Lineorder.MustColumn("lo_discount")
	qty := d.Lineorder.MustColumn("lo_quantity")
	for i := 0; i < rev.Len(); i++ {
		if rev.Get(i) < cost.Get(i) {
			t.Fatalf("row %d: revenue %d < supplycost %d", i, rev.Get(i), cost.Get(i))
		}
		if disc.Get(i) > 10 {
			t.Fatalf("row %d: discount %d > 10", i, disc.Get(i))
		}
		if q := qty.Get(i); q < 1 || q > 50 {
			t.Fatalf("row %d: quantity %d", i, q)
		}
		if price.Get(i) >= 1<<32 {
			t.Fatalf("row %d: extendedprice overflows int", i)
		}
	}
	// Deterministic regeneration.
	d2, err := Generate(0.005, 42)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Lineorder.MustColumn("lo_revenue").Get(100) != rev.Get(100) {
		t.Error("generation is not deterministic")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(0, 1); err == nil {
		t.Error("zero scale factor must error")
	}
	if _, err := Generate(-1, 1); err == nil {
		t.Error("negative scale factor must error")
	}
}

func TestCityNames(t *testing.T) {
	if got := cityOf("UNITED KINGDOM", 1); got != "UNITED KI1" {
		t.Errorf("cityOf = %q, want UNITED KI1", got)
	}
	if got := cityOf("UNITED STATES", 4); got != "UNITED ST4" {
		t.Errorf("cityOf = %q", got)
	}
	if got := cityOf("CHINA", 0); got != "CHINA    0" {
		t.Errorf("cityOf(CHINA) = %q (padding)", got)
	}
}

// TestAllQueriesAgreeAcrossModes is the core equivalence property of the
// reproduction: without induced faults, every SSB query returns the exact
// same result under all six detection variants and both kernel flavors.
func TestAllQueriesAgreeAcrossModes(t *testing.T) {
	db := smallDB(t)
	nonEmpty := 0
	for _, name := range QueryNames {
		plan := Queries[name]
		ref, log, err := exec.Run(db, exec.Unprotected, ops.Scalar, plan)
		if err != nil {
			t.Fatalf("%s unprotected: %v", name, err)
		}
		if log.Count() != 0 {
			t.Fatalf("%s: unprotected run logged errors", name)
		}
		if ref.Rows() > 0 && ref.Aggs[0] != 0 {
			nonEmpty++
		}
		for _, mode := range exec.Modes {
			for _, fl := range []ops.Flavor{ops.Scalar, ops.Blocked} {
				got, log, err := exec.Run(db, mode, fl, plan)
				if err != nil {
					t.Fatalf("%s %v/%v: %v", name, mode, fl, err)
				}
				if log.Count() != 0 {
					t.Fatalf("%s %v/%v: logged %d errors on clean data", name, mode, fl, log.Count())
				}
				if !ref.Equal(got) {
					t.Fatalf("%s %v/%v: result differs from unprotected (rows %d vs %d)",
						name, mode, fl, got.Rows(), ref.Rows())
				}
			}
		}
	}
	if nonEmpty < 8 {
		t.Errorf("only %d queries returned data; generator selectivities look wrong", nonEmpty)
	}
}

// TestQ11MatchesNaiveEvaluation cross-checks the Q1.1 plan against a
// direct row-at-a-time evaluation of the SQL semantics.
func TestQ11MatchesNaiveEvaluation(t *testing.T) {
	d := genSmall(t)
	db, err := exec.NewDB(d.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	// Naive: sum(extendedprice*discount) where d_year(orderdate)=1993,
	// discount in [1,3], quantity in [0,24].
	want := uint64(0)
	lo := d.Lineorder
	price := lo.MustColumn("lo_extendedprice")
	disc := lo.MustColumn("lo_discount")
	qty := lo.MustColumn("lo_quantity")
	od := lo.MustColumn("lo_orderdate")
	for i := 0; i < lo.Rows(); i++ {
		if disc.Get(i) >= 1 && disc.Get(i) <= 3 && qty.Get(i) <= 24 && od.Get(i)/10000 == 1993 {
			want += price.Get(i) * disc.Get(i)
		}
	}
	res, _, err := exec.Run(db, exec.Continuous, ops.Scalar, Queries["Q1.1"])
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 1 || res.Aggs[0] != want {
		t.Fatalf("Q1.1 = %v, want %d", res.Aggs, want)
	}
}

// TestQ21MatchesNaiveEvaluation cross-checks a grouped plan the same way.
func TestQ21MatchesNaiveEvaluation(t *testing.T) {
	d := genSmall(t)
	db, err := exec.NewDB(d.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	catDict := d.Part.MustColumn("p_category").Dict()
	mfgr12, _ := catDict.Code("MFGR#12")
	regDict := d.Supplier.MustColumn("s_region").Dict()
	america, _ := regDict.Code("AMERICA")

	type key struct{ year, brand uint64 }
	want := map[key]uint64{}
	lo := d.Lineorder
	rev := lo.MustColumn("lo_revenue")
	pk := lo.MustColumn("lo_partkey")
	sk := lo.MustColumn("lo_suppkey")
	od := lo.MustColumn("lo_orderdate")
	pcat := d.Part.MustColumn("p_category")
	pbrand := d.Part.MustColumn("p_brand1")
	sreg := d.Supplier.MustColumn("s_region")
	for i := 0; i < lo.Rows(); i++ {
		p := int(pk.Get(i)) - 1
		s := int(sk.Get(i)) - 1
		if pcat.Get(p) != uint64(mfgr12) || sreg.Get(s) != uint64(america) {
			continue
		}
		k := key{od.Get(i) / 10000, pbrand.Get(p)}
		want[k] += rev.Get(i)
	}
	res, _, err := exec.Run(db, exec.Continuous, ops.Blocked, Queries["Q2.1"])
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != len(want) {
		t.Fatalf("Q2.1 groups = %d, want %d", res.Rows(), len(want))
	}
	for i := range res.Keys {
		k := key{res.Keys[i][1], res.Keys[i][0]} // keys are (brand, year) per plan order
		if want[k] != res.Aggs[i] {
			t.Fatalf("group %v: %d, want %d", res.Keys[i], res.Aggs[i], want[k])
		}
	}
}

// TestDMRVoterCatchesReplicaDivergence corrupts one replica; the plain
// runs cannot notice per value, but the voter flags the divergence at the
// end - DMR's only detection point (Section 1).
func TestDMRVoterCatchesReplicaDivergence(t *testing.T) {
	d := genSmall(t)
	db, err := exec.NewDB(d.Tables(), storage.LargestCodeChooser)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in every replica revenue value: whichever rows qualify
	// for Q2.1, the two replica results must diverge.
	rev := db.Replica("lineorder").MustColumn("lo_revenue")
	for i := 0; i < rev.Len(); i++ {
		rev.Corrupt(i, 1<<20)
	}
	_, _, err = exec.Run(db, exec.DMR, ops.Scalar, Queries["Q2.1"])
	if err == nil {
		t.Fatal("DMR voter must flag diverging results")
	}
}

func TestStorageBytesPerMode(t *testing.T) {
	db := smallDB(t)
	unp := db.StorageBytes(exec.Unprotected)
	dmr := db.StorageBytes(exec.DMR)
	ahead := db.StorageBytes(exec.Continuous)
	if dmr != 2*unp {
		t.Errorf("DMR storage %d, want 2x unprotected %d", dmr, unp)
	}
	ratio := float64(ahead) / float64(unp)
	// Figure 1b: AHEAD needs ~1.5x against DMR's 2x. With shared
	// dictionaries the data arrays double but the heap does not.
	if ratio <= 1.0 || ratio > 2.1 {
		t.Errorf("AHEAD storage ratio %.2f out of plausible range", ratio)
	}
	if ahead >= dmr {
		t.Errorf("AHEAD storage %d must undercut DMR %d", ahead, dmr)
	}
}
