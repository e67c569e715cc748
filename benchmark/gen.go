package main

// Seeded input generator. -seed is the only source of randomness: every
// request text, request order and mutation is drawn here, before the
// timed window, from keys that exist in the generated TLC instance. The
// program under test receives only the generated inputs.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	beas "github.com/bounded-eval/beas"
	"github.com/bounded-eval/beas/internal/tlc"
	"github.com/bounded-eval/beas/internal/value"
)

// keyset lists parameter values present in one TLC instance. Each list
// is sorted by fan-out (how many rows carry the value), then by value:
// statements are drawn from it by systematic sampling — every k-th entry
// from a seeded offset — so every seed gets different keys but the same
// spread of cheap and expensive ones, and a run's cost does not depend
// on the luck of the draw.
type keyset struct {
	call  [][2]int64 // distinct (pnum, date) of call
	sms   [][2]int64 // distinct (pnum, date) of sms
	cust  []int64    // customer.pnum
	bill  []int64    // distinct billing.pnum
	roam  []int64    // distinct roaming.pnum
	biz   [][2]string
	compl [][2]string
}

// keysOf runs one conventional scan and returns the distinct keys of
// its rows, ordered by fan-out.
func keysOf[K comparable](db *beas.DB, sql string, key func(value.Row) K, less func(a, b K) bool) ([]K, error) {
	res, err := db.QueryBaseline(sql, beas.BaselinePostgres)
	if err != nil {
		return nil, fmt.Errorf("sampling keys with %q: %w", sql, err)
	}
	n := make(map[K]int, len(res.Rows))
	for _, r := range res.Rows {
		n[key(r)]++
	}
	return byFanout(n, less), nil
}

// sampleKeys reads the parameter domains out of db through the public
// API (one conventional scan per relation).
func sampleKeys(db *beas.DB) (*keyset, error) {
	ints := func(sql string) ([]int64, error) {
		return keysOf(db, sql, func(r value.Row) int64 { return r[0].I }, func(a, b int64) bool { return a < b })
	}
	pairs := func(sql string) ([][2]int64, error) {
		return keysOf(db, sql, func(r value.Row) [2]int64 { return [2]int64{r[0].I, r[1].I} },
			func(a, b [2]int64) bool { return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]) })
	}
	strPairs := func(sql string) ([][2]string, error) {
		return keysOf(db, sql, func(r value.Row) [2]string { return [2]string{r[0].S, r[1].S} },
			func(a, b [2]string) bool { return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]) })
	}
	ks := &keyset{}
	var err error
	if ks.call, err = pairs(`SELECT pnum, date FROM call`); err != nil {
		return nil, err
	}
	if ks.sms, err = pairs(`SELECT pnum, date FROM sms`); err != nil {
		return nil, err
	}
	if ks.cust, err = ints(`SELECT pnum FROM customer`); err != nil {
		return nil, err
	}
	if ks.bill, err = ints(`SELECT pnum FROM billing`); err != nil {
		return nil, err
	}
	if ks.roam, err = ints(`SELECT pnum FROM roaming`); err != nil {
		return nil, err
	}
	if ks.biz, err = strPairs(`SELECT type, region FROM business`); err != nil {
		return nil, err
	}
	if ks.compl, err = strPairs(`SELECT category, region FROM complaint`); err != nil {
		return nil, err
	}
	return ks, nil
}

// byFanout returns the keys of n ordered by count, then by less.
func byFanout[K comparable](n map[K]int, less func(a, b K) bool) []K {
	out := make([]K, 0, len(n))
	for k := range n {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if n[out[i]] != n[out[j]] {
			return n[out[i]] < n[out[j]]
		}
		return less(out[i], out[j])
	})
	return out
}

// systematic returns m increasing positions in [0, n): every (n/m)-th
// from a seeded offset, or all of them when m >= n.
func systematic(r *rand.Rand, n, m int) []int {
	if m >= n {
		m = n
	}
	out := make([]int, m)
	step, u := float64(n)/float64(max(m, 1)), r.Float64()
	for j := range out {
		out[j] = min(int((float64(j)+u)*step), n-1)
	}
	return out
}

// shape renders one TLC statement shape. extra is either empty or one
// more conjunct (" AND col <> -n") on an attribute the shape already
// fetches: it changes the text and a literal, never the answer, which
// is how http_coldtext gets texts that do not repeat while the oracle
// stays one answer per base statement.
type shape struct {
	name string
	// domain is the size of the key list the shape's main parameter comes
	// from; render takes a position in it. Secondary parameters (a date,
	// a package id) come from r. hotKey reports the (pnum, date) bucket of
	// call the statement probes, for shapes that read exactly one.
	domain func(ks *keyset) int
	render func(r *rand.Rand, ks *keyset, pos int, extra func(col string) string) (sql string, hotKey [2]int64)
}

func noExtra(string) string { return "" }

func callKeys(ks *keyset) int  { return len(ks.call) }
func custKeys(ks *keyset) int  { return len(ks.cust) }
func billKeys(ks *keyset) int  { return len(ks.bill) }
func roamKeys(ks *keyset) int  { return len(ks.roam) }
func bizKeys(ks *keyset) int   { return len(ks.biz) }
func complKeys(ks *keyset) int { return len(ks.compl) }

var (
	shapeQ2 = shape{"Q2", callKeys, func(r *rand.Rand, ks *keyset, pos int, extra func(string) string) (string, [2]int64) {
		k := ks.call[pos]
		return fmt.Sprintf(`SELECT recnum, region FROM call WHERE pnum = %d AND date = %d%s`, k[0], k[1], extra("recnum")), k
	}}
	shapeQ3 = shape{"Q3", callKeys, func(r *rand.Rand, ks *keyset, pos int, extra func(string) string) (string, [2]int64) {
		k := ks.call[pos]
		return fmt.Sprintf(`SELECT region, COUNT(*) AS calls FROM call WHERE pnum = %d AND date = %d%s GROUP BY region ORDER BY calls DESC, region`,
			k[0], k[1], extra("recnum")), k
	}}
	shapeQ4 = shape{"Q4", custKeys, func(r *rand.Rand, ks *keyset, pos int, extra func(string) string) (string, [2]int64) {
		p := ks.cust[pos]
		return fmt.Sprintf(`SELECT customer.name, package.pid, package.start, package.end FROM customer, package WHERE customer.pnum = %d AND package.pnum = customer.pnum AND package.year = %d%s`,
			p, tlc.Year, extra("package.start")), [2]int64{}
	}}
	shapeQ6 = shape{"Q6", billKeys, func(r *rand.Rand, ks *keyset, pos int, extra func(string) string) (string, [2]int64) {
		p := ks.bill[pos]
		return fmt.Sprintf(`SELECT month, amount, status FROM billing WHERE pnum = %d AND year = %d%s ORDER BY month`,
			p, tlc.Year, extra("month")), [2]int64{}
	}}
	shapeQ9 = shape{"Q9", roamKeys, func(r *rand.Rand, ks *keyset, pos int, extra func(string) string) (string, [2]int64) {
		p := ks.roam[pos]
		lo := 20160301 + r.Intn(15)
		return fmt.Sprintf(`SELECT country, SUM(charge) AS spend FROM roaming WHERE pnum = %d AND date BETWEEN %d AND %d%s GROUP BY country ORDER BY country`,
			p, lo, lo+5+r.Intn(10), extra("minutes_out")), [2]int64{}
	}}
	shapeQ10 = shape{"Q10", bizKeys, func(r *rand.Rand, ks *keyset, pos int, extra func(string) string) (string, [2]int64) {
		b := ks.biz[pos]
		// The two other regions follow from the first, so that the IN list's
		// size on the data is a property of the key, not of the draw.
		at := 0
		for i, reg := range tlc.Regions {
			if reg == b[1] {
				at = i
			}
		}
		r2, r3 := tlc.Regions[(at+1)%len(tlc.Regions)], tlc.Regions[(at+5)%len(tlc.Regions)]
		return fmt.Sprintf(`SELECT business.region, COUNT(DISTINCT business.pnum) AS banks FROM business WHERE business.type = '%s' AND business.region IN ('%s', '%s', '%s')%s GROUP BY business.region ORDER BY business.region`,
			b[0], b[1], r2, r3, extra("business.pnum")), [2]int64{}
	}}
	shapeQ1 = shape{"Q1", bizKeys, func(r *rand.Rand, ks *keyset, pos int, _ func(string) string) (string, [2]int64) {
		b := ks.biz[pos]
		d := 20160301 + r.Intn(30)
		month := (d / 100) % 100
		return fmt.Sprintf(`SELECT call.region FROM call, package, business WHERE business.type = '%s' AND business.region = '%s' AND business.pnum = call.pnum AND call.date = %d AND call.pnum = package.pnum AND package.year = %d AND package.start <= %d AND package.end >= %d AND package.pid = 'c%d'`,
			b[0], b[1], d, tlc.Year, month, month, r.Intn(60)), [2]int64{}
	}}
	shapeQ5 = shape{"Q5", callKeys, func(r *rand.Rand, ks *keyset, pos int, _ func(string) string) (string, [2]int64) {
		k := ks.call[pos]
		return fmt.Sprintf(`SELECT DISTINCT sms.recnum FROM call, sms WHERE call.pnum = %d AND call.date = %d AND sms.pnum = call.pnum AND sms.date = call.date`, k[0], k[1]), [2]int64{}
	}}
	shapeQ7 = shape{"Q7", bizKeys, func(r *rand.Rand, ks *keyset, pos int, _ func(string) string) (string, [2]int64) {
		b := ks.biz[pos]
		return fmt.Sprintf(`SELECT billing.month, SUM(billing.amount) AS total FROM business, billing WHERE business.type = '%s' AND business.region = '%s' AND billing.pnum = business.pnum AND billing.year = %d GROUP BY billing.month ORDER BY billing.month`,
			b[0], b[1], tlc.Year), [2]int64{}
	}}
	shapeQ8 = shape{"Q8", complKeys, func(r *rand.Rand, ks *keyset, pos int, _ func(string) string) (string, [2]int64) {
		c := ks.compl[pos]
		return fmt.Sprintf(`SELECT customer.segment, COUNT(*) AS n FROM complaint, customer WHERE complaint.category = '%s' AND complaint.region = '%s' AND customer.pnum = complaint.pnum GROUP BY customer.segment ORDER BY n DESC, customer.segment`,
			c[0], c[1]), [2]int64{}
	}}
	shapeQ12 = shape{"Q12", bizKeys, func(r *rand.Rand, ks *keyset, pos int, _ func(string) string) (string, [2]int64) {
		b := ks.biz[pos]
		return fmt.Sprintf(`SELECT billing.month, COUNT(*) AS n FROM business, call, billing WHERE business.type = '%s' AND business.region = '%s' AND call.pnum = business.pnum AND call.date = %d AND call.region = '%s' AND billing.pnum = business.pnum AND billing.year = %d GROUP BY billing.month ORDER BY billing.month`,
			b[0], b[1], 20160301+r.Intn(30), tlc.Regions[r.Intn(len(tlc.Regions))], tlc.Year), [2]int64{}
	}}

	lookupShapes = []shape{shapeQ2, shapeQ3, shapeQ4, shapeQ6, shapeQ9, shapeQ10}
	joinShapes   = []shape{shapeQ1, shapeQ5, shapeQ7, shapeQ8, shapeQ12}
	sweepShapes  = []shape{shapeQ1, shapeQ2, shapeQ7}
	churnShapes  = []shape{shapeQ2, shapeQ3, shapeQ6, shapeQ7}
)

// mutation is one writer operation: an insert of row into table, or
// (del) a delete of every row of table with the given pnum and date.
// hot marks an insert under a key the read set probes.
type mutation struct {
	del   bool
	hot   bool
	table string
	pnum  int64
	date  int64
	row   value.Row
}

func (m *mutation) where() map[string]any {
	return map[string]any{"pnum": m.pnum, "date": m.date}
}

// inputs is everything one workload run feeds the program.
type inputs struct {
	// bases are the distinct statements the oracle answers; texts are the
	// request texts, texts[i] having the answer of bases[baseOf[i]].
	bases  []string
	shapes []string // shape name per base
	texts  []string
	baseOf []int32
	// reqs[c] is client c's request order (indices into texts), cycled.
	reqs [][]int32
	// hotKeys are the call buckets the read set probes (rcache_churn).
	hotKeys [][2]int64
	muts    []mutation
}

// digest hashes the materialised lists, for the equal-seed test.
func (in *inputs) digest() uint64 {
	h := fnv.New64a()
	for _, t := range in.texts {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	for _, rs := range in.reqs {
		for _, r := range rs {
			fmt.Fprintf(h, "%d,", r)
		}
		h.Write([]byte{1})
	}
	for i := range in.muts {
		m := &in.muts[i]
		fmt.Fprintf(h, "%v|%v|%s|%d|%d|%s;", m.del, m.hot, m.table, m.pnum, m.date, value.Key(m.row))
	}
	return h.Sum64()
}

// pick is one statement before rendering: a shape, a position in its
// key list and the seed of its secondary parameters.
type pick struct {
	sh    shape
	pos   int
	state int64
}

func (p pick) render(ks *keyset, extra func(string) string) (string, [2]int64) {
	return p.sh.render(rand.New(rand.NewSource(p.state)), ks, p.pos, extra)
}

// pickStatements chooses n statements, shapes taking turns, each
// shape's keys by systematic sampling over its fan-out-ordered list. A
// shape whose list is shorter than its share gives all it has and the
// others make up the difference.
func pickStatements(r *rand.Rand, ks *keyset, shapes []shape, n int) []pick {
	quota := make([]int, len(shapes))
	for left, i, stuck := n, 0, 0; left > 0 && stuck < len(shapes); i++ {
		k := i % len(shapes)
		if quota[k] < shapes[k].domain(ks) {
			quota[k]++
			left--
			stuck = 0
		} else {
			stuck++
		}
	}
	perShape := make([][]pick, len(shapes))
	for k, sh := range shapes {
		for _, pos := range systematic(r, sh.domain(ks), quota[k]) {
			perShape[k] = append(perShape[k], pick{sh, pos, r.Int63()})
		}
	}
	var out []pick // interleaved, so that any prefix has the shape mix too
	for j := 0; len(out) < n; j++ {
		added := false
		for k := range perShape {
			if j < len(perShape[k]) {
				out = append(out, perShape[k][j])
				added = true
			}
		}
		if !added {
			break
		}
	}
	return out
}

// balancedOrder is a seeded request order of n entries over k texts in
// which every text comes up equally often: shuffled rounds of all k.
func balancedOrder(r *rand.Rand, k, n int) []int32 {
	out := make([]int32, 0, n+k)
	for len(out) < n {
		for _, i := range r.Perm(k) {
			out = append(out, int32(i))
		}
	}
	return out
}

const orderLen = 8192 // requests per client before the order repeats

// genRepeated builds a workload whose clients cycle through n distinct
// texts (http_hot, embed_join, scale_sweep, durable_mixed, rcache_churn).
func genRepeated(seed int64, ks *keyset, shapes []shape, n, clients int) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for _, p := range pickStatements(r, ks, shapes, n) {
		sql, hot := p.render(ks, noExtra)
		in.bases = append(in.bases, sql)
		in.shapes = append(in.shapes, p.sh.name)
		if hot != ([2]int64{}) {
			in.hotKeys = append(in.hotKeys, hot)
		}
	}
	in.texts = in.bases
	in.baseOf = make([]int32, len(in.texts))
	for i := range in.baseOf {
		in.baseOf[i] = int32(i)
	}
	for c := 0; c < clients; c++ {
		in.reqs = append(in.reqs, balancedOrder(r, len(in.texts), orderLen))
	}
	return in
}

// genColdText builds http_coldtext: nTexts texts over nBases answers,
// each text unique through its extra literal, split between the clients
// and visited in order, so a text returns only after every other text
// of that client has been through the template tier.
func genColdText(seed int64, ks *keyset, nBases, nTexts, clients int) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{}
	bases := pickStatements(r, ks, lookupShapes, nBases)
	for _, p := range bases {
		sql, _ := p.render(ks, noExtra)
		in.bases = append(in.bases, sql)
		in.shapes = append(in.shapes, p.sh.name)
	}
	salt := 1 + r.Intn(1<<20)
	for i := 0; i < nTexts; i++ {
		b := i % len(bases)
		lit := salt + i
		sql, _ := bases[b].render(ks, func(col string) string { return fmt.Sprintf(" AND %s <> -%d", col, lit) })
		in.texts = append(in.texts, sql)
		in.baseOf = append(in.baseOf, int32(b))
	}
	per := nTexts / clients
	for c := 0; c < clients; c++ {
		order := make([]int32, per)
		for i := range order {
			order[i] = int32(c*per + i)
		}
		in.reqs = append(in.reqs, order)
	}
	return in
}

// Writer keys start here, above every pnum the TLC generator emits, so
// inserts land in fresh buckets and every constraint keeps conforming.
const freshPnumBase = 9_000_000

func callRow(r *rand.Rand, pnum, recnum, date int64, seq int) value.Row {
	vi, vs, vf := value.NewInt, value.NewString, value.NewFloat
	return value.Row{
		vi(pnum), vi(recnum), vi(date), vi(int64(r.Intn(86400))), vi(int64(1 + r.Intn(3600))),
		vs(tlc.Regions[r.Intn(len(tlc.Regions))]), vs("voice"), vs("mo"), vs("volte"), vs("DE"),
		vi(int64(7000 + r.Intn(500))), vi(100000 + pnum), vi(900000 + pnum), vi(int64(r.Intn(40))),
		vi(int64(r.Intn(100))), vi(int64(r.Intn(100))), vi(int64(r.Intn(8))),
		vi(int64(50 + r.Intn(4000))), vi(int64(r.Intn(65000))), vi(int64(r.Intn(65000))),
		vi(int64(1 + r.Intn(5))), vi(int64(seq)), vi(int64(seq / 1000)),
		vs(""), vs("flat"), vs("EUR"),
		vf(1 + 4*r.Float64()), vf(r.Float64() * 2),
		vi(0), vi(0),
	}
}

func smsRow(r *rand.Rand, pnum, recnum, date int64, seq int) value.Row {
	vi, vs, vf := value.NewInt, value.NewString, value.NewFloat
	return value.Row{
		vi(pnum), vi(recnum), vi(date), vi(int64(r.Intn(86400))),
		vi(int64(1 + r.Intn(160))), vi(int64(r.Intn(3))),
		vi(int64(7000 + r.Intn(500))), vi(100000 + pnum), vi(0),
		vi(int64(1 + r.Intn(5))), vi(int64(seq)), vi(int64(r.Intn(3))),
		vi(int64(1 + r.Intn(3))), vi(0), vi(int64(1 + r.Intn(4))),
		vs(tlc.Regions[r.Intn(len(tlc.Regions))]), vs("gsm7"), vs("text"), vs("delivered"),
		vs("DE"), vs("EUR"), vf(r.Float64() * 0.2),
	}
}

// genMutations materialises n writer operations. Nine in ten insert one
// row of call or sms under a fresh (pnum, date); one in ten deletes the
// bucket of one of the writer's own earlier inserts, so table size
// levels off. With hotKeys, every second operation instead inserts a
// call row with a fresh recnum under a bucket the read set probes.
func genMutations(seed int64, n int, hotKeys [][2]int64) []mutation {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	muts := make([]mutation, 0, n)
	var own []int // indices of fresh inserts not yet deleted
	for i := 0; i < n; i++ {
		date := int64(20160301 + r.Intn(30))
		if len(hotKeys) > 0 && i%2 == 0 {
			k := hotKeys[(i/2)%len(hotKeys)]
			muts = append(muts, mutation{hot: true, table: "call", pnum: k[0], date: k[1],
				row: callRow(r, k[0], freshPnumBase+int64(i), k[1], i)})
			continue
		}
		if i%10 == 9 && len(own) > 0 {
			j := r.Intn(len(own))
			m := muts[own[j]]
			own[j] = own[len(own)-1]
			own = own[:len(own)-1]
			muts = append(muts, mutation{del: true, table: m.table, pnum: m.pnum, date: m.date})
			continue
		}
		pnum := freshPnumBase + int64(i)
		m := mutation{table: "call", pnum: pnum, date: date}
		if r.Intn(2) == 0 {
			m.row = callRow(r, pnum, 1000+int64(r.Intn(400)), date, i)
		} else {
			m.table = "sms"
			m.row = smsRow(r, pnum, 1000+int64(r.Intn(400)), date, i)
		}
		own = append(own, len(muts))
		muts = append(muts, m)
	}
	return muts
}
