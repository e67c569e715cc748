package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	beas "github.com/bounded-eval/beas"
	"github.com/bounded-eval/beas/internal/obs"
	"github.com/bounded-eval/beas/internal/value"
)

// The structs the /query lines were marshalled from by encoding/json;
// the typed writer must reproduce their encoding byte for byte.
type (
	rowChunk struct {
		Rows [][]any `json:"rows"`
	}
	trailerLine struct {
		Stats statsJSON `json:"stats"`
	}
	errorLine struct {
		Error string `json:"error"`
	}
)

// marshalLine is a line as json.Encoder.Encode wrote it.
func marshalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

// FuzzNDJSONRow: header, row, trailer and error lines from the typed
// writer are byte-identical to encoding/json's encoding of the same
// structs, and a value JSON cannot represent is an encode error on both
// sides. The row hash matches the one obs.RowHash computes from
// json.Marshal, so capture hashes do not move.
func FuzzNDJSONRow(f *testing.F) {
	strs := []string{
		"", "plain", "a<b", "a>b", "a&b", `a"b`, `a\b`, "\b\f\n\r\t\x00\x1f\x7f", "bad \xff\xfe utf8",
		"sep \u2028 \u2029", "héllo, 世界", "a/b", "\ufffd",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1e-6, 9.999999e-7, 1e-7, 1e21, 9.99999e20, 1e20,
		5e-324, 2.2250738585072014e-308 / 3, 3, -1.5, 123456789, 0.1, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	for i, s := range strs {
		for j, x := range floats {
			k := i*len(floats) + j
			f.Add(s, x, ints[k%len(ints)], k%2 == 0, uint64(k%3)*math.MaxUint64/2)
		}
	}
	f.Fuzz(func(t *testing.T, s string, x float64, i int64, flag bool, bound uint64) {
		// Row line, through the writer the handlers use.
		row := beas.Row{value.NewInt(i), value.NewFloat(x), value.NewString(s), value.NewBool(flag), value.NewNull()}
		want, wantErr := marshalLine(rowChunk{Rows: [][]any{jsonRow(row), jsonRow(row[2:3])}})
		rec := httptest.NewRecorder()
		out := newNDJSON(rec)
		h := obs.NewRowHash()
		err := out.chunk([]beas.Row{row, row[2:3]}, h)
		out.close()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("row %v: writer error %v, encoding/json error %v", row, err, wantErr)
		}
		if err == nil {
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("row line:\n got %q\nwant %q", rec.Body.Bytes(), want)
			}
			wantHash := obs.NewRowHash()
			wantHash.Add(jsonRow(row))
			wantHash.Add(jsonRow(row[2:3]))
			if h.Sum() != wantHash.Sum() {
				t.Fatalf("row hash %s, want %s", h.Sum(), wantHash.Sum())
			}
		} else if rec.Body.Len() != 0 {
			t.Fatalf("unencodable row wrote %q", rec.Body.Bytes())
		}

		// Header line, with and without columns and bound.
		for _, hdr := range []queryHeader{
			{Columns: []string{s, "k"}, Admission: s, Covered: flag, Bound: bound},
			{Columns: []string{}, Admission: "admitted"},
			{Admission: "downgraded", Covered: true, Bound: 7},
		} {
			want, _ := marshalLine(hdr)
			if got := appendHeader(nil, hdr); !bytes.Equal(got, want) {
				t.Fatalf("header line:\n got %q\nwant %q", got, want)
			}
		}

		// Trailer line: optional fields set or left empty.
		st := statsJSON{Mode: s, Rows: i, TuplesFetched: i, DurationMS: x, Coverage: x, CacheHit: flag}
		if flag {
			st.Bound = bound
			st.ConstraintsUsed = int(i % 7)
			st.TuplesScanned = -i
			st.FetchSteps = []stepJSON{
				{Atom: s, Constraint: "c({a} -> {b}, 2)", DistinctKey: i, Fetched: 2, RowsOut: -3},
				{Atom: "<t>", Constraint: s},
			}
		}
		want, wantErr = marshalLine(trailerLine{Stats: st})
		got, err := appendTrailer(nil, st)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("trailer %+v: writer error %v, encoding/json error %v", st, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("trailer line:\n got %q\nwant %q", got, want)
		}

		// Error line.
		want, _ = marshalLine(errorLine{Error: s})
		if got := appendError(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("error line:\n got %q\nwant %q", got, want)
		}
	})
}

// flushRecorder is a ResponseWriter that records each Write and counts
// Flush calls, noting how many row lines had been written at each.
type flushRecorder struct {
	hdr      http.Header
	lines    []string
	rowLines int
	flushes  []int // rowLines at each Flush
}

func (r *flushRecorder) Header() http.Header {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	return r.hdr
}
func (r *flushRecorder) WriteHeader(int) {}
func (r *flushRecorder) Write(p []byte) (int, error) {
	r.lines = append(r.lines, string(p))
	if bytes.HasPrefix(p, []byte(`{"rows":`)) {
		r.rowLines++
	}
	return len(p), nil
}
func (r *flushRecorder) Flush() { r.flushes = append(r.flushes, r.rowLines) }

// TestSingleBatchAnswerOneWrite: an answer of one row batch is never
// flushed, so net/http sends it in one write with a Content-Length.
func TestSingleBatchAnswerOneWrite(t *testing.T) {
	db := newOrdersDB(t, 2, 10)
	s := New(db, Config{})
	stmt, err := db.Prepare("SELECT item FROM orders WHERE cust = 1")
	if err != nil {
		t.Fatal(err)
	}
	w := &flushRecorder{}
	s.streamQuery(context.Background(), w, stmt, decideAdmit, time.Now(), nil)
	if len(w.flushes) != 0 {
		t.Errorf("Flush called %d times, want 0", len(w.flushes))
	}
	if len(w.lines) != 3 || w.rowLines != 1 {
		t.Errorf("writes = %q, want header, one row line, trailer", w.lines)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"sql":"SELECT item FROM orders WHERE cust = 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
		t.Errorf("status %d, transfer encoding %v, content length %d for a %d-byte body; want 200 with a Content-Length",
			resp.StatusCode, resp.TransferEncoding, resp.ContentLength, len(body))
	}
}

// TestMultiBatchAnswerStreams: a long answer still streams — chunk k is
// flushed as soon as batch k+1 exists, so there is one flush per batch
// but the last, and the first comes after the first row line.
func TestMultiBatchAnswerStreams(t *testing.T) {
	const n = 5000
	db := beas.NewDB()
	db.MustCreateTable("big", "k INT", "v INT")
	for i := 0; i < n; i++ {
		db.MustInsert("big", i, i)
	}
	s := New(db, Config{AllowUncovered: true})
	stmt, err := db.Prepare("SELECT v FROM big")
	if err != nil {
		t.Fatal(err)
	}
	w := &flushRecorder{}
	s.streamQuery(context.Background(), w, stmt, decideAdmit, time.Now(), nil)
	if st := s.Stats(); st.RowsStreamed != n {
		t.Fatalf("RowsStreamed = %d, want %d", st.RowsStreamed, n)
	}
	if w.rowLines < 2 {
		t.Fatalf("%d row lines, want a multi-batch answer", w.rowLines)
	}
	if len(w.flushes) != w.rowLines-1 {
		t.Errorf("%d flushes for %d batches, want batches - 1", len(w.flushes), w.rowLines)
	}
	if w.flushes[0] != 1 {
		t.Errorf("first flush after %d row lines, want 1", w.flushes[0])
	}
	if !strings.HasPrefix(w.lines[len(w.lines)-1], `{"stats":`) {
		t.Errorf("last line %q, want the stats trailer", w.lines[len(w.lines)-1])
	}
}

// overflowDB holds one FLOAT near the top of its range: v * 10.0
// overflows to +Inf, which JSON cannot represent.
func overflowDB(t *testing.T) *beas.DB {
	t.Helper()
	db := beas.NewDB()
	db.MustCreateTable("t", "k INT", "v FLOAT")
	db.MustInsert("t", 1, 1e308)
	db.MustRegisterConstraint("t({k} -> {v}, 10)")
	return db
}

// TestNonFiniteValueFailsQuery: an answer holding ±Inf ends in an error
// line and counts as failed — not as a client disconnect — and the
// capture records the failure; on the exact and the downgraded path.
func TestNonFiniteValueFailsQuery(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		adm  decision
	}{
		{"exact", Config{}, decideAdmit},
		{"approx", Config{BoundBudget: 1, OverBudget: PolicyApprox, ApproxBudget: 10}, decideDowngrade},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rec, err := obs.NewRecorder(dir, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			tc.cfg.Capture = rec
			s := New(overflowDB(t), tc.cfg)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			res, er, status := mustRunQuery(t, ts.URL, "SELECT v * 10.0 FROM t WHERE k = 1")
			if er != nil {
				t.Fatalf("status %d: %s", status, er.Error)
			}
			if res.header.Admission != string(tc.adm) {
				t.Errorf("admission = %q, want %q", res.header.Admission, tc.adm)
			}
			if !strings.Contains(res.errLine, "+Inf") || res.stats != nil || len(res.rows) != 0 {
				t.Errorf("error line %q, trailer %+v, rows %v; want an error line naming +Inf and nothing else", res.errLine, res.stats, res.rows)
			}
			st := s.Stats()
			if st.Failed != 1 || st.Disconnected != 0 || st.Canceled != 0 {
				t.Errorf("Failed=%d Disconnected=%d Canceled=%d, want 1/0/0", st.Failed, st.Disconnected, st.Canceled)
			}
			if st.RowsAbandoned != 0 || st.RowsStreamed != 0 {
				t.Errorf("RowsAbandoned=%d RowsStreamed=%d, want 0/0 (no row was written)", st.RowsAbandoned, st.RowsStreamed)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			recs, err := obs.LoadCapture(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || recs[0].Outcome != outcomeFailed {
				t.Fatalf("capture = %+v, want one failed record", recs)
			}
		})
	}
}

// TestRequestBodyLimit: a body over the limit is answered 413 in the
// error shape, on every endpoint that reads one, and the server keeps
// serving.
func TestRequestBodyLimit(t *testing.T) {
	s := New(newOrdersDB(t, 1, 5), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	huge := fmt.Sprintf(`{"sql":"SELECT item FROM orders WHERE cust = 0 %s"}`, strings.Repeat(" ", 2<<20))
	for _, path := range []string{"/query", "/check", "/explain"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || er.Error == "" {
			t.Errorf("%s: status %d, error %q (%v); want 413 with an error", path, resp.StatusCode, er.Error, err)
		}
	}
	res, er, status := mustRunQuery(t, ts.URL, "SELECT item FROM orders WHERE cust = 0")
	if er != nil || status != http.StatusOK || len(res.rows) != 5 {
		t.Fatalf("next request: status %d, error %v", status, er)
	}
}
