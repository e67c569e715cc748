package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	beas "github.com/bounded-eval/beas"
	"github.com/bounded-eval/beas/internal/obs"
	"github.com/bounded-eval/beas/internal/value"
)

// maxPooledBuf is the largest buffer returned to bufPool, so one huge
// body or row batch does not pin its memory in the pool.
const maxPooledBuf = 64 << 10

// bufPool holds the byte buffers request bodies are read into and
// response lines are encoded in.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// ndjson writes the /query wire format: one header line, one line per
// row batch, then a stats trailer or an error line. Each line is encoded
// into a pooled buffer by typed code and handed to the ResponseWriter in
// one Write, which lands in net/http's response buffer, not in a
// syscall. Nothing is flushed unless the caller asks (see streamQuery),
// so a short answer leaves in one write with a Content-Length.
//
// The bytes are exactly encoding/json's encoding (HTML escaping on) of
// queryHeader, {"rows": [][]any}, {"stats": statsJSON} and
// {"error": string}.
//
// Only chunk reports write errors: the outcome accounting is about rows,
// and a client lost before the header is caught by the first chunk's
// write.
type ndjson struct {
	w       http.ResponseWriter
	flusher http.Flusher
	buf     *[]byte
	ends    []int // end offset of each row of the current chunk line, for the row hash
}

func newNDJSON(w http.ResponseWriter) ndjson {
	w.Header().Set("Content-Type", "application/x-ndjson")
	f, _ := w.(http.Flusher)
	return ndjson{w: w, flusher: f, buf: getBuf()}
}

// close returns the line buffer to the pool.
func (n *ndjson) close() {
	putBuf(n.buf)
	n.buf = nil
}

func (n *ndjson) flush() {
	if n.flusher != nil {
		n.flusher.Flush()
	}
}

func (n *ndjson) write(b []byte) error {
	*n.buf = b
	_, err := n.w.Write(b)
	return err
}

func (n *ndjson) header(h queryHeader) {
	n.write(appendHeader((*n.buf)[:0], h))
}

// chunk writes one line of rows, folding each row into hasher (when
// capture is on) so the recorded hash covers exactly the bytes the
// client is sent. An *unencodableError means nothing was written and the
// query failed; any other error means the client is gone.
func (n *ndjson) chunk(rows []beas.Row, hasher *obs.RowHash) error {
	b := append((*n.buf)[:0], `{"rows":[`...)
	n.ends = n.ends[:0]
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendRow(b, r); err != nil {
			*n.buf = b
			return err
		}
		if hasher != nil {
			n.ends = append(n.ends, len(b))
		}
	}
	b = append(b, "]}\n"...)
	if hasher != nil {
		start := len(`{"rows":[`)
		for _, end := range n.ends {
			hasher.AddJSON(b[start:end])
			start = end + 1
		}
	}
	return n.write(b)
}

func (n *ndjson) trailer(st statsJSON) {
	b, err := appendTrailer((*n.buf)[:0], st)
	if err != nil {
		n.fail(err)
		return
	}
	n.write(b)
}

func (n *ndjson) fail(err error) {
	n.write(appendError((*n.buf)[:0], err.Error()))
}

// unencodableError is a value JSON cannot represent (NaN, ±Inf). It fails
// the query; unlike a write error, it says nothing about the client.
type unencodableError struct{ f float64 }

func (e *unencodableError) Error() string {
	return "result value " + strconv.FormatFloat(e.f, 'g', -1, 64) + " has no JSON encoding"
}

func appendHeader(b []byte, h queryHeader) []byte {
	b = append(b, `{"columns":`...)
	if h.Columns == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range h.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c)
		}
		b = append(b, ']')
	}
	b = append(b, `,"admission":`...)
	b = appendString(b, h.Admission)
	b = append(b, `,"covered":`...)
	b = strconv.AppendBool(b, h.Covered)
	if h.Bound != 0 {
		b = append(b, `,"bound":`...)
		b = strconv.AppendUint(b, h.Bound, 10)
	}
	return append(b, "}\n"...)
}

// appendRow encodes one result row as a JSON array: ints, floats,
// strings, bools and null.
func appendRow(b []byte, r beas.Row) ([]byte, error) {
	b = append(b, '[')
	for i, v := range r {
		if i > 0 {
			b = append(b, ',')
		}
		switch v.K {
		case value.Int:
			b = strconv.AppendInt(b, v.I, 10)
		case value.Float:
			var err error
			if b, err = appendFloat(b, v.F); err != nil {
				return b, err
			}
		case value.String:
			b = appendString(b, v.S)
		case value.Bool:
			b = strconv.AppendBool(b, v.I != 0)
		default:
			b = append(b, "null"...)
		}
	}
	return append(b, ']'), nil
}

func appendTrailer(b []byte, st statsJSON) ([]byte, error) {
	b = append(b, `{"stats":{"mode":`...)
	b = appendString(b, st.Mode)
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, st.Rows, 10)
	if st.Bound != 0 {
		b = append(b, `,"bound":`...)
		b = strconv.AppendUint(b, st.Bound, 10)
	}
	if st.ConstraintsUsed != 0 {
		b = append(b, `,"constraintsUsed":`...)
		b = strconv.AppendInt(b, int64(st.ConstraintsUsed), 10)
	}
	b = append(b, `,"tuplesFetched":`...)
	b = strconv.AppendInt(b, st.TuplesFetched, 10)
	if st.TuplesScanned != 0 {
		b = append(b, `,"tuplesScanned":`...)
		b = strconv.AppendInt(b, st.TuplesScanned, 10)
	}
	if len(st.FetchSteps) > 0 {
		b = append(b, `,"fetchSteps":[`...)
		for i, s := range st.FetchSteps {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"atom":`...)
			b = appendString(b, s.Atom)
			b = append(b, `,"constraint":`...)
			b = appendString(b, s.Constraint)
			b = append(b, `,"distinctKeys":`...)
			b = strconv.AppendInt(b, s.DistinctKey, 10)
			b = append(b, `,"fetched":`...)
			b = strconv.AppendInt(b, s.Fetched, 10)
			b = append(b, `,"rowsOut":`...)
			b = strconv.AppendInt(b, s.RowsOut, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"durationMs":`...)
	var err error
	if b, err = appendFloat(b, st.DurationMS); err != nil {
		return b, err
	}
	if st.Coverage != 0 {
		b = append(b, `,"coverage":`...)
		if b, err = appendFloat(b, st.Coverage); err != nil {
			return b, err
		}
	}
	if st.CacheHit {
		b = append(b, `,"cacheHit":true`...)
	}
	return append(b, "}}\n"...), nil
}

func appendError(b []byte, msg string) []byte {
	b = append(b, `{"error":`...)
	b = appendString(b, msg)
	return append(b, "}\n"...)
}

// appendFloat encodes f as encoding/json does: 'f' format, or 'e' below
// 1e-6 and from 1e21 on, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &unencodableError{f}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString copies a string that needs no escaping — printable ASCII
// other than " \ < > & — between quotes, and hands any other to
// json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
