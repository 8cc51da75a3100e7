// Package ssb implements the Star Schema Benchmark substrate of the
// paper's end-to-end evaluation (Section 6): a deterministic in-process
// data generator with the SSB schema and value distributions, the 13
// manually written query plans, and the measurement harness producing the
// relative-runtime and storage comparisons of Figures 1, 6, 7, 8 and 11.
//
// The generator replaces the external dbgen tool (see DESIGN.md): same
// schema, same dictionaries (TPC-H regions/nations/cities, MFGR
// manufacturer/category/brand hierarchy), same key distributions and
// selectivities, with row counts scaled by the scale factor. Scale factor
// 1 corresponds to 6,000,000 lineorder rows.
package ssb

import (
	"fmt"
	"math/rand"
	"time"

	"ahead/internal/storage"
)

// regions and their nations (TPC-H appendix).
var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var nationsByRegion = map[string][]string{
	"AFRICA":      {"ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"},
	"AMERICA":     {"ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"},
	"ASIA":        {"CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"},
	"EUROPE":      {"FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"},
	"MIDDLE EAST": {"EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"},
}

var monthNames = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}

// cityOf formats the SSB city name: the nation truncated/padded to nine
// characters plus a digit, e.g. "UNITED KI1".
func cityOf(nation string, i int) string {
	return fmt.Sprintf("%-9.9s%d", nation, i)
}

// Data bundles the five SSB tables.
type Data struct {
	Lineorder *storage.Table
	Date      *storage.Table
	Customer  *storage.Table
	Supplier  *storage.Table
	Part      *storage.Table
}

// Tables returns all tables for DB construction.
func (d *Data) Tables() []*storage.Table {
	return []*storage.Table{d.Lineorder, d.Date, d.Customer, d.Supplier, d.Part}
}

// Rows summarizes table cardinalities.
func (d *Data) Rows() map[string]int {
	return map[string]int{
		"lineorder": d.Lineorder.Rows(),
		"date":      d.Date.Rows(),
		"customer":  d.Customer.Rows(),
		"supplier":  d.Supplier.Rows(),
		"part":      d.Part.Rows(),
	}
}

// Generate produces the SSB tables at the given scale factor with a
// deterministic seed. sf may be fractional; sf = 1 yields the standard
// 6,000,000 lineorder rows (tests use much smaller factors).
func Generate(sf float64, seed int64) (*Data, error) {
	if sf <= 0 {
		return nil, fmt.Errorf("ssb: scale factor must be positive, got %v", sf)
	}
	rng := rand.New(rand.NewSource(seed))
	d := &Data{}
	var err error
	if d.Date, err = genDate(); err != nil {
		return nil, err
	}
	nCust := scaled(30000, sf)
	nSupp := scaled(2000, sf)
	nPart := scaled(200000, sf) // dbgen grows parts with log2(sf); linear is fine below sf=1
	nLine := scaled(6000000, sf)
	if d.Customer, err = genCustomer(nCust, rng); err != nil {
		return nil, err
	}
	if d.Supplier, err = genSupplier(nSupp, rng); err != nil {
		return nil, err
	}
	if d.Part, err = genPart(nPart, rng); err != nil {
		return nil, err
	}
	if d.Lineorder, err = genLineorder(nLine, d, rng); err != nil {
		return nil, err
	}
	return d, nil
}

func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	// Keep dimensions large enough that every region/nation/category
	// appears even at tiny test scale factors.
	if n < 50 {
		n = 50
	}
	return n
}

func newTable(name string, cols ...*storage.Column) (*storage.Table, error) {
	t := storage.NewTable(name)
	for _, c := range cols {
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// genDate produces the 7-year calendar (1992-01-01 .. 1998-12-31) of the
// SSB date dimension with the full attribute set of the specification.
func genDate() (*storage.Table, error) {
	datekey, err := storage.NewColumn("d_datekey", storage.Int)
	if err != nil {
		return nil, err
	}
	year, _ := storage.NewColumn("d_year", storage.ShortInt)
	yearmonthnum, _ := storage.NewColumn("d_yearmonthnum", storage.Int)
	daynuminweek, _ := storage.NewColumn("d_daynuminweek", storage.TinyInt)
	daynuminmonth, _ := storage.NewColumn("d_daynuminmonth", storage.TinyInt)
	daynuminyear, _ := storage.NewColumn("d_daynuminyear", storage.ShortInt)
	monthnuminyear, _ := storage.NewColumn("d_monthnuminyear", storage.TinyInt)
	weeknuminyear, _ := storage.NewColumn("d_weeknuminyear", storage.TinyInt)
	lastdayinweekfl, _ := storage.NewColumn("d_lastdayinweekfl", storage.TinyInt)
	lastdayinmonthfl, _ := storage.NewColumn("d_lastdayinmonthfl", storage.TinyInt)
	holidayfl, _ := storage.NewColumn("d_holidayfl", storage.TinyInt)
	weekdayfl, _ := storage.NewColumn("d_weekdayfl", storage.TinyInt)
	var yearmonths, months, dayofweeks, seasons []string

	seasonOf := func(m time.Month) string {
		switch {
		case m == time.December:
			return "Christmas"
		case m >= time.June && m <= time.August:
			return "Summer"
		case m >= time.January && m <= time.February:
			return "Winter"
		default:
			return ""
		}
	}

	start := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	for day := start; day.Before(end); day = day.AddDate(0, 0, 1) {
		y, m, dd := day.Date()
		datekey.Append(uint64(y*10000 + int(m)*100 + dd))
		year.Append(uint64(y))
		yearmonthnum.Append(uint64(y*100 + int(m)))
		daynuminweek.Append(uint64(day.Weekday()) + 1)
		daynuminmonth.Append(uint64(dd))
		daynuminyear.Append(uint64(day.YearDay()))
		monthnuminyear.Append(uint64(m))
		_, week := day.ISOWeek()
		weeknuminyear.Append(uint64(week))
		lastdayinweekfl.Append(boolFlag(day.Weekday() == time.Saturday))
		lastdayinmonthfl.Append(boolFlag(day.AddDate(0, 0, 1).Month() != m))
		holidayfl.Append(boolFlag((m == time.December && dd == 25) || (m == time.January && dd == 1) || (m == time.July && dd == 4)))
		weekdayfl.Append(boolFlag(day.Weekday() != time.Saturday && day.Weekday() != time.Sunday))
		yearmonths = append(yearmonths, fmt.Sprintf("%s%d", monthNames[int(m)-1], y))
		months = append(months, monthNames[int(m)-1])
		dayofweeks = append(dayofweeks, day.Weekday().String())
		seasons = append(seasons, seasonOf(m))
	}
	return newTable("date",
		datekey, year, yearmonthnum, daynuminweek, daynuminmonth,
		daynuminyear, monthnuminyear, weeknuminyear,
		lastdayinweekfl, lastdayinmonthfl, holidayfl, weekdayfl,
		storage.NewStrColumn("d_yearmonth", yearmonths),
		storage.NewStrColumn("d_month", months),
		storage.NewStrColumn("d_dayofweek", dayofweeks),
		storage.NewStrColumn("d_sellingseason", seasons),
	)
}

func boolFlag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func genCustomer(n int, rng *rand.Rand) (*storage.Table, error) {
	custkey, err := storage.NewColumn("c_custkey", storage.Int)
	if err != nil {
		return nil, err
	}
	var cities, nations, regions, names, addresses, phones []string
	for i := 0; i < n; i++ {
		custkey.Append(uint64(i + 1))
		region := regionNames[rng.Intn(len(regionNames))]
		nation := nationsByRegion[region][rng.Intn(5)]
		cities = append(cities, cityOf(nation, rng.Intn(10)))
		nations = append(nations, nation)
		regions = append(regions, region)
		names = append(names, fmt.Sprintf("Customer#%09d", i+1))
		addresses = append(addresses, randAddress(rng))
		phones = append(phones, randPhone(rng))
	}
	name, err := storage.NewHeapStrColumn("c_name", names)
	if err != nil {
		return nil, err
	}
	address, err := storage.NewHeapStrColumn("c_address", addresses)
	if err != nil {
		return nil, err
	}
	phone, err := storage.NewHeapStrColumn("c_phone", phones)
	if err != nil {
		return nil, err
	}
	return newTable("customer",
		custkey,
		storage.NewStrColumn("c_city", cities),
		storage.NewStrColumn("c_nation", nations),
		storage.NewStrColumn("c_region", regions),
		name, address, phone,
	)
}

// randAddress produces a variable-length address string (10..25 chars).
func randAddress(rng *rand.Rand) string {
	n := 10 + rng.Intn(16)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('A' + rng.Intn(26))
	}
	return string(b)
}

// randPhone produces a TPC-H style phone number.
func randPhone(rng *rand.Rand) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d", 10+rng.Intn(25), rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))
}

func genSupplier(n int, rng *rand.Rand) (*storage.Table, error) {
	suppkey, err := storage.NewColumn("s_suppkey", storage.Int)
	if err != nil {
		return nil, err
	}
	var cities, nations, regions, names, addresses, phones []string
	for i := 0; i < n; i++ {
		suppkey.Append(uint64(i + 1))
		region := regionNames[rng.Intn(len(regionNames))]
		nation := nationsByRegion[region][rng.Intn(5)]
		cities = append(cities, cityOf(nation, rng.Intn(10)))
		nations = append(nations, nation)
		regions = append(regions, region)
		names = append(names, fmt.Sprintf("Supplier#%09d", i+1))
		addresses = append(addresses, randAddress(rng))
		phones = append(phones, randPhone(rng))
	}
	name, err := storage.NewHeapStrColumn("s_name", names)
	if err != nil {
		return nil, err
	}
	address, err := storage.NewHeapStrColumn("s_address", addresses)
	if err != nil {
		return nil, err
	}
	phone, err := storage.NewHeapStrColumn("s_phone", phones)
	if err != nil {
		return nil, err
	}
	return newTable("supplier",
		suppkey,
		storage.NewStrColumn("s_city", cities),
		storage.NewStrColumn("s_nation", nations),
		storage.NewStrColumn("s_region", regions),
		name, address, phone,
	)
}

func genPart(n int, rng *rand.Rand) (*storage.Table, error) {
	partkey, err := storage.NewColumn("p_partkey", storage.Int)
	if err != nil {
		return nil, err
	}
	size, _ := storage.NewColumn("p_size", storage.TinyInt)
	var mfgrs, categories, brands, names, colors, types, containers []string
	colorList := []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched", "blue", "blush"}
	typeList := []string{"STANDARD ANODIZED TIN", "SMALL PLATED COPPER", "MEDIUM POLISHED BRASS", "ECONOMY BURNISHED STEEL", "PROMO BRUSHED NICKEL"}
	containerList := []string{"SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "WRAP CASE", "JUMBO PKG"}
	for i := 0; i < n; i++ {
		partkey.Append(uint64(i + 1))
		size.Append(uint64(rng.Intn(50) + 1))
		m := rng.Intn(5) + 1
		c := rng.Intn(5) + 1
		b := rng.Intn(40) + 1
		mfgr := fmt.Sprintf("MFGR#%d", m)
		category := fmt.Sprintf("MFGR#%d%d", m, c)
		mfgrs = append(mfgrs, mfgr)
		categories = append(categories, category)
		brands = append(brands, fmt.Sprintf("%s%d", category, b))
		color := colorList[rng.Intn(len(colorList))]
		colors = append(colors, color)
		names = append(names, color+" "+colorList[rng.Intn(len(colorList))])
		types = append(types, typeList[rng.Intn(len(typeList))])
		containers = append(containers, containerList[rng.Intn(len(containerList))])
	}
	name, err := storage.NewHeapStrColumn("p_name", names)
	if err != nil {
		return nil, err
	}
	ptype, err := storage.NewHeapStrColumn("p_type", types)
	if err != nil {
		return nil, err
	}
	container, err := storage.NewHeapStrColumn("p_container", containers)
	if err != nil {
		return nil, err
	}
	return newTable("part",
		partkey, size,
		storage.NewStrColumn("p_mfgr", mfgrs),
		storage.NewStrColumn("p_category", categories),
		storage.NewStrColumn("p_brand1", brands),
		storage.NewStrColumn("p_color", colors),
		name, ptype, container,
	)
}

func genLineorder(n int, d *Data, rng *rand.Rand) (*storage.Table, error) {
	orderkey, err := storage.NewColumn("lo_orderkey", storage.Int)
	if err != nil {
		return nil, err
	}
	linenumber, _ := storage.NewColumn("lo_linenumber", storage.TinyInt)
	custkey, _ := storage.NewColumn("lo_custkey", storage.Int)
	partkey, _ := storage.NewColumn("lo_partkey", storage.Int)
	suppkey, _ := storage.NewColumn("lo_suppkey", storage.Int)
	orderdate, _ := storage.NewColumn("lo_orderdate", storage.Int)
	quantity, _ := storage.NewColumn("lo_quantity", storage.TinyInt)
	extendedprice, _ := storage.NewColumn("lo_extendedprice", storage.Int)
	discount, _ := storage.NewColumn("lo_discount", storage.TinyInt)
	revenue, _ := storage.NewColumn("lo_revenue", storage.Int)
	supplycost, _ := storage.NewColumn("lo_supplycost", storage.Int)
	tax, _ := storage.NewColumn("lo_tax", storage.TinyInt)
	ordtotalprice, _ := storage.NewColumn("lo_ordtotalprice", storage.Int)
	commitdate, _ := storage.NewColumn("lo_commitdate", storage.Int)
	shippriority, _ := storage.NewColumn("lo_shippriority", storage.TinyInt)
	// Row counts are known up front: reserving them keeps the fifteen
	// columns and two string lists from regrowing by doubling.
	for _, c := range []*storage.Column{orderkey, linenumber, custkey, partkey, suppkey, orderdate,
		quantity, extendedprice, discount, revenue, supplycost, tax, ordtotalprice, commitdate, shippriority} {
		c.Reserve(n)
	}
	shipmodes, priorities := make([]string, 0, n), make([]string, 0, n)
	modes := []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	prioList := []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"}

	nCust := d.Customer.Rows()
	nSupp := d.Supplier.Rows()
	nPart := d.Part.Rows()
	dateKeys := d.Date.MustColumn("d_datekey")
	nDate := dateKeys.Len()

	order := uint64(1)
	line := 0
	linesInOrder := rng.Intn(7) + 1
	for i := 0; i < n; i++ {
		if line >= linesInOrder {
			order++
			line = 0
			linesInOrder = rng.Intn(7) + 1
		}
		line++
		orderkey.Append(order)
		linenumber.Append(uint64(line))
		custkey.Append(uint64(rng.Intn(nCust) + 1))
		partkey.Append(uint64(rng.Intn(nPart) + 1))
		suppkey.Append(uint64(rng.Intn(nSupp) + 1))
		orderdate.Append(dateKeys.Get(rng.Intn(nDate)))
		qty := uint64(rng.Intn(50) + 1)
		quantity.Append(qty)
		// Price model: part base price 900..104999 (cents scale kept
		// small to fit 32-bit extended prices at any quantity).
		price := qty * uint64(rng.Intn(104100)+900) / 10
		extendedprice.Append(price)
		disc := uint64(rng.Intn(11))
		discount.Append(disc)
		revenue.Append(price * (100 - disc) / 100)
		supplycost.Append(price * 6 / 10)
		tax.Append(uint64(rng.Intn(9)))
		ordtotalprice.Append(price * uint64(linesInOrder))
		commitdate.Append(dateKeys.Get(rng.Intn(nDate)))
		shippriority.Append(0)
		shipmodes = append(shipmodes, modes[rng.Intn(len(modes))])
		priorities = append(priorities, prioList[rng.Intn(len(prioList))])
	}
	shipmode, err := storage.NewHeapStrColumn("lo_shipmode", shipmodes)
	if err != nil {
		return nil, err
	}
	orderpriority, err := storage.NewHeapStrColumn("lo_orderpriority", priorities)
	if err != nil {
		return nil, err
	}
	return newTable("lineorder",
		orderkey, linenumber, custkey, partkey, suppkey, orderdate,
		quantity, extendedprice, discount, revenue, supplycost, tax,
		ordtotalprice, commitdate, shippriority,
		shipmode, orderpriority,
	)
}
