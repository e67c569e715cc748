package beas

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"github.com/bounded-eval/beas/internal/value"
)

// enginePin is what one conventional-engine run must reproduce exactly:
// the answer rows in order, the per-operator work counters and the base
// rows scanned. Hashes are FNV-64a over the rendered rows / operators.
type enginePin struct {
	query    string
	baseline Baseline
	rows     int
	rowsHash string
	ops      int
	opsHash  string
	scanned  int64
}

// renderOps renders the duration-free operator statistics, one per line.
func renderOps(ops []OpStat) string {
	var b strings.Builder
	for _, o := range ops {
		fmt.Fprintf(&b, "%s|%d|%d|%g\n", o.Op, o.RowsIn, o.RowsOut, o.EstRows)
	}
	return b.String()
}

func fnvHex(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func pinOf(name string, base Baseline, res *Result) enginePin {
	keys := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = value.Key(r)
	}
	return enginePin{
		query:    name,
		baseline: base,
		rows:     len(res.Rows),
		rowsHash: fnvHex(keys...),
		ops:      len(res.Stats.Ops),
		opsHash:  fnvHex(renderOps(res.Stats.Ops)),
		scanned:  res.Stats.TuplesScanned,
	}
}

// TestEnginePin pins the conventional engine's observable behaviour —
// answer order, Stats.Ops (operator, rows in, rows out, estimate) and
// TuplesScanned — for TLC Q1–Q12 at scale 1 and the vectorized
// regression statements, under each of the three baselines. Operator
// rewrites inside the engine must leave every entry unchanged; a
// deliberate change of plan or counters updates the table.
func TestEnginePin(t *testing.T) {
	type run struct {
		name string
		db   *DB
		sql  string
	}
	var runs []run
	tlcDB := MustNewTLCDB(1)
	for _, q := range TLCQueries() {
		runs = append(runs, run{q.Name, tlcDB, q.SQL})
	}
	for i, sql := range enginePinTLCSQL {
		runs = append(runs, run{fmt.Sprintf("tlc%d", i), tlcDB, sql})
	}
	regDB := randomDB(t, rand.New(rand.NewSource(7000)))
	for i, sql := range vecRegressionSQL {
		runs = append(runs, run{fmt.Sprintf("reg%d", i), regDB, sql})
	}
	for i, sql := range enginePinSQL {
		runs = append(runs, run{fmt.Sprintf("eng%d", i), regDB, sql})
	}

	want := make(map[string]enginePin, len(enginePins))
	for _, p := range enginePins {
		want[p.query+"/"+string(p.baseline)] = p
	}
	var got []string
	mismatch := false
	for _, r := range runs {
		for _, base := range []Baseline{BaselinePostgres, BaselineMySQL, BaselineMariaDB} {
			res, err := r.db.QueryBaseline(r.sql, base)
			if err != nil {
				t.Fatalf("%s under %s: %v", r.name, base, err)
			}
			p := pinOf(r.name, base, res)
			got = append(got, fmt.Sprintf("\t{%q, %q, %d, %q, %d, %q, %d},", p.query, p.baseline, p.rows, p.rowsHash, p.ops, p.opsHash, p.scanned))
			if w, ok := want[p.query+"/"+string(base)]; !ok || w != p {
				mismatch = true
				t.Errorf("%s under %s: got %+v, want %+v\nops:\n%s", r.name, base, p, w, renderOps(res.Stats.Ops))
			}
		}
	}
	if mismatch {
		t.Logf("current table:\n%s", strings.Join(got, "\n"))
	}
}

// enginePinTLCSQL adds plan shapes the TLC queries lack: a post-join
// filter, LIMIT early exit over a join and over a scan.
var enginePinTLCSQL = []string{
	"SELECT call.recnum, sms.recnum FROM call, sms WHERE call.pnum = sms.pnum AND call.date < sms.date LIMIT 40",
	"SELECT call.region, COUNT(*) AS n FROM call, business WHERE call.pnum = business.pnum AND call.region <> business.region GROUP BY call.region ORDER BY call.region",
	"SELECT call.recnum FROM call WHERE call.date = 20160315 LIMIT 3",
}

// enginePinSQL adds the same over the randomized schema, plus a cross
// product with a post-join filter and a residual constant conjunct.
var enginePinSQL = []string{
	"SELECT r.a, t.f FROM r, t WHERE r.d < t.e",
	"SELECT r.a, s.e FROM r, s WHERE r.b = s.b AND r.d + s.e > 2",
	"SELECT r.a, s.e FROM r, s WHERE r.b = s.b LIMIT 5",
	"SELECT r.a FROM r WHERE 1 < 2",
	"SELECT COUNT(*) AS n FROM r, s, t WHERE r.b = s.b AND s.e = t.e AND r.v < s.e",
}

// enginePins: query, baseline, rows, rows hash, operators, operator hash,
// tuples scanned.
var enginePins = []enginePin{
	{"Q1", "postgresql", 51, "4c621d89235cfc80", 6, "08ab9693efb1307b", 5793},
	{"Q1", "mysql", 51, "4e67c8fb92e1ce4a", 6, "24ee7392fcb134ef", 5793},
	{"Q1", "mariadb", 51, "4e67c8fb92e1ce4a", 6, "c0c88f7418c0777b", 5793},
	{"Q2", "postgresql", 21, "64d73bdc3cc9483d", 2, "2b762ebabca86f0a", 4000},
	{"Q2", "mysql", 21, "64d73bdc3cc9483d", 2, "2b762ebabca86f0a", 4000},
	{"Q2", "mariadb", 21, "64d73bdc3cc9483d", 2, "2b762ebabca86f0a", 4000},
	{"Q3", "postgresql", 9, "a34e93b5d614e0ff", 2, "3374435fb5bd14b8", 4000},
	{"Q3", "mysql", 9, "a34e93b5d614e0ff", 2, "3374435fb5bd14b8", 4000},
	{"Q3", "mariadb", 9, "a34e93b5d614e0ff", 2, "3374435fb5bd14b8", 4000},
	{"Q4", "postgresql", 1, "8ed3d50a4336e0d3", 4, "8ce991cbe8441006", 2293},
	{"Q4", "mysql", 1, "8ed3d50a4336e0d3", 4, "0d6d888345f428f5", 2293},
	{"Q4", "mariadb", 1, "8ed3d50a4336e0d3", 4, "8ce991cbe8441006", 2293},
	{"Q5", "postgresql", 25, "eb9920f38ab0c29f", 4, "f70ddb5771b140b3", 5500},
	{"Q5", "mysql", 25, "eb9920f38ab0c29f", 4, "dfb9e1d8cf3b5e1a", 5500},
	{"Q5", "mariadb", 25, "eb9920f38ab0c29f", 4, "f70ddb5771b140b3", 5500},
	{"Q6", "postgresql", 10, "f49c6c1e35389cc0", 2, "e42e9db1076d0d5f", 3609},
	{"Q6", "mysql", 10, "f49c6c1e35389cc0", 2, "e42e9db1076d0d5f", 3609},
	{"Q6", "mariadb", 10, "f49c6c1e35389cc0", 2, "e42e9db1076d0d5f", 3609},
	{"Q7", "postgresql", 12, "f77c4700b3e8bfea", 4, "d025a73bfa142978", 3909},
	{"Q7", "mysql", 12, "f77c4700b3e8bfea", 4, "9e68e0f1c4ad77b5", 3909},
	{"Q7", "mariadb", 12, "f77c4700b3e8bfea", 4, "d025a73bfa142978", 3909},
	{"Q8", "postgresql", 5, "76067392efca9069", 4, "1f24c955603b3199", 1050},
	{"Q8", "mysql", 5, "76067392efca9069", 4, "ffee645d6a60a7ae", 1050},
	{"Q8", "mariadb", 5, "76067392efca9069", 4, "1f24c955603b3199", 1050},
	{"Q9", "postgresql", 7, "1812124047b7f5a0", 2, "7866d2985f8e9326", 400},
	{"Q9", "mysql", 7, "1812124047b7f5a0", 2, "7866d2985f8e9326", 400},
	{"Q9", "mariadb", 7, "1812124047b7f5a0", 2, "7866d2985f8e9326", 400},
	{"Q10", "postgresql", 2, "d858a91f38da5cb1", 2, "94e1a452330964de", 300},
	{"Q10", "mysql", 2, "d858a91f38da5cb1", 2, "94e1a452330964de", 300},
	{"Q10", "mariadb", 2, "d858a91f38da5cb1", 2, "94e1a452330964de", 300},
	{"Q11", "postgresql", 21, "9809a24709c5bc50", 4, "1a9cac9a8aeac0cc", 4300},
	{"Q11", "mysql", 21, "9809a24709c5bc50", 4, "5c679c0affe777c3", 4300},
	{"Q11", "mariadb", 21, "9809a24709c5bc50", 4, "1a9cac9a8aeac0cc", 4300},
	{"Q12", "postgresql", 7, "9a29064019ef1759", 6, "283627c0c22762c7", 7909},
	{"Q12", "mysql", 7, "9a29064019ef1759", 6, "c5686efe8baa0dc9", 7909},
	{"Q12", "mariadb", 7, "9a29064019ef1759", 6, "283627c0c22762c7", 7909},
	{"tlc0", "postgresql", 40, "d64832434dfd564c", 4, "4f307af204742d23", 2012},
	{"tlc0", "mysql", 40, "fb68abfa20ce97c4", 4, "0f06fd241f8401bf", 5500},
	{"tlc0", "mariadb", 40, "44feccb307daa398", 4, "cebe3c694a5cb5a3", 4256},
	{"tlc1", "postgresql", 12, "0d93493c490b6b63", 4, "8e1f24169421082f", 4300},
	{"tlc1", "mysql", 12, "0d93493c490b6b63", 4, "9c7deaf003b1a0e0", 4300},
	{"tlc1", "mariadb", 12, "0d93493c490b6b63", 4, "45eba3840cf21f7f", 4300},
	{"tlc2", "postgresql", 3, "038a873bae566f84", 2, "0d309874ad7e2256", 256},
	{"tlc2", "mysql", 3, "038a873bae566f84", 2, "0d309874ad7e2256", 256},
	{"tlc2", "mariadb", 3, "038a873bae566f84", 2, "0d309874ad7e2256", 256},
	{"reg0", "postgresql", 8, "db6764d1d2a3120f", 2, "76f3fbfbbf58c64a", 56},
	{"reg0", "mysql", 8, "db6764d1d2a3120f", 2, "76f3fbfbbf58c64a", 56},
	{"reg0", "mariadb", 8, "db6764d1d2a3120f", 2, "76f3fbfbbf58c64a", 56},
	{"reg1", "postgresql", 6, "b3847423838e3995", 2, "687a8599ff7fe944", 56},
	{"reg1", "mysql", 6, "b3847423838e3995", 2, "687a8599ff7fe944", 56},
	{"reg1", "mariadb", 6, "b3847423838e3995", 2, "687a8599ff7fe944", 56},
	{"reg2", "postgresql", 11, "8209abeafee98f78", 2, "928a5929369988f4", 56},
	{"reg2", "mysql", 11, "8209abeafee98f78", 2, "928a5929369988f4", 56},
	{"reg2", "mariadb", 11, "8209abeafee98f78", 2, "928a5929369988f4", 56},
	{"reg3", "postgresql", 1, "90db6be33f63c52f", 2, "643164689c12e4d3", 56},
	{"reg3", "mysql", 1, "90db6be33f63c52f", 2, "643164689c12e4d3", 56},
	{"reg3", "mariadb", 1, "90db6be33f63c52f", 2, "643164689c12e4d3", 56},
	{"reg4", "postgresql", 0, "cbf29ce484222325", 4, "397fd90ace30bc77", 76},
	{"reg4", "mysql", 0, "cbf29ce484222325", 4, "98fe80ae9a91f710", 76},
	{"reg4", "mariadb", 0, "cbf29ce484222325", 4, "d0c4986a6bbcbc77", 76},
	{"reg5", "postgresql", 1, "1e00380c8d2d3a6b", 2, "2cc0038fe6a98c1b", 56},
	{"reg5", "mysql", 1, "1e00380c8d2d3a6b", 2, "2cc0038fe6a98c1b", 56},
	{"reg5", "mariadb", 1, "1e00380c8d2d3a6b", 2, "2cc0038fe6a98c1b", 56},
	{"reg6", "postgresql", 1, "5134b2c89dac9396", 2, "952d8d88a9099b88", 56},
	{"reg6", "mysql", 1, "5134b2c89dac9396", 2, "952d8d88a9099b88", 56},
	{"reg6", "mariadb", 1, "5134b2c89dac9396", 2, "952d8d88a9099b88", 56},
	{"reg7", "postgresql", 14, "f03be5aa89b17d46", 4, "3f97a657fc9387c8", 76},
	{"reg7", "mysql", 14, "569b79d5bafb37f6", 4, "5b27a3571648e09d", 76},
	{"reg7", "mariadb", 14, "f4b3bfd23f46a570", 4, "a65d2b3c29cf9100", 76},
	{"eng0", "postgresql", 279, "180faa738f111ca9", 4, "6165d4fdae748304", 80},
	{"eng0", "mysql", 279, "0ee1091754cb7903", 4, "4a71e4e19e9596c0", 80},
	{"eng0", "mariadb", 279, "0ee1091754cb7903", 4, "4a71e4e19e9596c0", 80},
	{"eng1", "postgresql", 171, "0d1b9d033ae21de6", 4, "edad9b359c255e1a", 76},
	{"eng1", "mysql", 171, "0447e5edd7b32aaa", 4, "e75f5fab62e282d9", 76},
	{"eng1", "mariadb", 171, "a87714d1da08902c", 4, "d40eb65827252fca", 76},
	{"eng2", "postgresql", 5, "befb948f21aed03e", 4, "6c2b837d4142f940", 76},
	{"eng2", "mysql", 5, "33535054ec0d068e", 4, "a10ba31c9759cc5b", 76},
	{"eng2", "mariadb", 5, "26f251faab0f9811", 4, "fc5b20135bbae770", 76},
	{"eng3", "postgresql", 56, "0e5511200dc3502f", 3, "2dfc9dbeabe2e655", 56},
	{"eng3", "mysql", 56, "0e5511200dc3502f", 3, "2dfc9dbeabe2e655", 56},
	{"eng3", "mariadb", 56, "0e5511200dc3502f", 3, "2dfc9dbeabe2e655", 56},
	{"eng4", "postgresql", 1, "5a8ee5c8a32ab695", 6, "9ba6cca12855d6fb", 100},
	{"eng4", "mysql", 1, "5a8ee5c8a32ab695", 6, "eef662e279efb3cd", 100},
	{"eng4", "mariadb", 1, "5a8ee5c8a32ab695", 6, "9ba6cca12855d6fb", 100},
}
