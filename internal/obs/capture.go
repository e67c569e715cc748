package obs

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// CaptureFormatVersion is the on-disk capture format. Readers reject
// records stamped with a newer version; the header line of every
// segment carries it too, so a capture directory is self-describing.
const CaptureFormatVersion = 1

// captureFormatName identifies a segment header line.
const captureFormatName = "beas-capture"

// Recorder defaults: segments rotate at 8 MiB and the newest 8 are
// retained, bounding a capture directory to ~64 MiB.
const (
	DefaultCaptureSegmentBytes = 8 << 20
	DefaultCaptureSegments     = 8
)

// CaptureRecord is one executed statement in the flight recorder: the
// replayable input (sql, parameter vector) plus the recorded baseline a
// replay diffs against (row count, row hash, bound, mode). Records with
// Outcome != "ok" are context, not baselines — a replay skips them.
type CaptureRecord struct {
	V           int       `json:"v"`
	Seq         uint64    `json:"seq"`
	Time        time.Time `json:"ts"`
	SQL         string    `json:"sql"`
	Fingerprint string    `json:"fp,omitempty"`
	Params      []any     `json:"params,omitempty"`
	Admission   string    `json:"admission,omitempty"`
	Mode        string    `json:"mode,omitempty"`
	Outcome     string    `json:"outcome"`
	Bound       uint64    `json:"bound,omitempty"`
	Rows        int64     `json:"rows"`
	RowsHash    string    `json:"rowsHash,omitempty"`
	Fetched     int64     `json:"tuplesFetched"`
	Scanned     int64     `json:"tuplesScanned,omitempty"`
	EstFetched  float64   `json:"estFetched,omitempty"`
	Constraints []string  `json:"constraints,omitempty"`
	Coverage    float64   `json:"coverage,omitempty"`
	CacheHit    bool      `json:"cacheHit,omitempty"`
	DurationMS  float64   `json:"durationMs"`
	TraceID     string    `json:"traceId,omitempty"`
}

// captureHeader is the first line of every segment.
type captureHeader struct {
	Format string `json:"format"`
	V      int    `json:"v"`
}

// RecorderStats is a point-in-time view of a recorder.
type RecorderStats struct {
	Dir         string `json:"dir"`
	Records     uint64 `json:"records"`
	Bytes       int64  `json:"bytes"`
	Segments    int    `json:"segments"`
	Rotations   uint64 `json:"rotations"`
	WriteErrors uint64 `json:"writeErrors"`
}

// Recorder appends capture records as JSON lines to size-rotated
// segment files (capture-NNNNNN.jsonl) in one directory. Writes are
// synchronous and unbuffered so a kill -9 loses at most the line being
// written — readers tolerate exactly one torn final line. A write
// failure is counted, never fatal: capture is observability, not
// correctness. Safe for concurrent use; methods are no-ops on a nil
// receiver.
type Recorder struct {
	mu        sync.Mutex
	dir       string
	segBytes  int64
	maxSegs   int
	f         *os.File
	segSize   int64
	segIndex  int
	seq       uint64
	records   uint64
	rotations uint64
	writeErrs uint64
	totalSize int64
	closed    bool

	nowOverride func() time.Time
}

// NewRecorder opens (creating if needed) a capture directory and starts
// a fresh segment after any existing ones — restarts never append into
// a possibly-torn tail. segBytes/maxSegments <= 0 select the defaults.
func NewRecorder(dir string, segBytes int64, maxSegments int) (*Recorder, error) {
	if segBytes <= 0 {
		segBytes = DefaultCaptureSegmentBytes
	}
	if maxSegments <= 0 {
		maxSegments = DefaultCaptureSegments
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: creating capture dir: %w", err)
	}
	r := &Recorder{dir: dir, segBytes: segBytes, maxSegs: maxSegments}
	segs, err := captureSegments(dir)
	if err != nil {
		return nil, err
	}
	if n := len(segs); n > 0 {
		last := segs[n-1]
		fmt.Sscanf(filepath.Base(last), "capture-%06d.jsonl", &r.segIndex)
	}
	if err := r.openSegmentLocked(); err != nil {
		return nil, err
	}
	return r, nil
}

// captureSegments lists a directory's segment files in index order.
func captureSegments(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "capture-*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

func (r *Recorder) openSegmentLocked() error {
	r.segIndex++
	name := filepath.Join(r.dir, fmt.Sprintf("capture-%06d.jsonl", r.segIndex))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("obs: opening capture segment: %w", err)
	}
	hdr, _ := json.Marshal(captureHeader{Format: captureFormatName, V: CaptureFormatVersion})
	hdr = append(hdr, '\n')
	n, err := f.Write(hdr)
	if err != nil {
		r.writeErrs++
	}
	r.f = f
	r.segSize = int64(n)
	r.totalSize += int64(n)
	return nil
}

// rotateLocked closes the current segment, opens the next and prunes
// the oldest segments past the retention cap.
func (r *Recorder) rotateLocked() {
	if r.f != nil {
		r.f.Close()
	}
	if err := r.openSegmentLocked(); err != nil {
		r.f = nil
		r.writeErrs++
		return
	}
	r.rotations++
	segs, err := captureSegments(r.dir)
	if err != nil {
		return
	}
	for len(segs) > r.maxSegs {
		if info, err := os.Stat(segs[0]); err == nil {
			r.totalSize -= info.Size()
		}
		os.Remove(segs[0])
		segs = segs[1:]
	}
}

// Record appends one record, stamping version, sequence number and (if
// unset) timestamp.
func (r *Recorder) Record(rec CaptureRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.f == nil {
		return
	}
	r.seq++
	rec.Seq = r.seq
	rec.V = CaptureFormatVersion
	if rec.Time.IsZero() {
		if r.nowOverride != nil {
			rec.Time = r.nowOverride()
		} else {
			rec.Time = time.Now()
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		r.writeErrs++
		return
	}
	line = append(line, '\n')
	if r.segSize > 0 && r.segSize+int64(len(line)) > r.segBytes {
		r.rotateLocked()
		if r.f == nil {
			return
		}
	}
	n, err := r.f.Write(line)
	r.segSize += int64(n)
	r.totalSize += int64(n)
	if err != nil {
		r.writeErrs++
		return
	}
	r.records++
}

// Stats returns the recorder's counters.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	segs, _ := captureSegments(r.dir)
	return RecorderStats{
		Dir:         r.dir,
		Records:     r.records,
		Bytes:       r.totalSize,
		Segments:    len(segs),
		Rotations:   r.rotations,
		WriteErrors: r.writeErrs,
	}
}

// Dir returns the capture directory.
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// Close flushes and closes the current segment. Further Records are
// dropped silently.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// LoadCapture reads capture records from a single segment file or a
// capture directory (segments in index order). Exactly one torn final
// line — the signature of a crash mid-write — is tolerated; corruption
// anywhere else is an error, as is any record stamped with a newer
// format version.
func LoadCapture(path string) ([]CaptureRecord, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = captureSegments(path); err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("obs: no capture-*.jsonl segments in %s", path)
		}
	}
	var out []CaptureRecord
	for fi, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		lines := splitLines(data)
		for li, line := range lines {
			if len(line) == 0 {
				continue
			}
			var hdr captureHeader
			if err := json.Unmarshal(line, &hdr); err == nil && hdr.Format != "" {
				if hdr.Format != captureFormatName || hdr.V > CaptureFormatVersion {
					return nil, fmt.Errorf("obs: %s: unsupported capture format %s v%d", file, hdr.Format, hdr.V)
				}
				continue
			}
			var rec CaptureRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				if fi == len(files)-1 && li == len(lines)-1 {
					break // torn tail from a crash mid-write
				}
				return nil, fmt.Errorf("obs: %s line %d: %w", file, li+1, err)
			}
			if rec.V > CaptureFormatVersion {
				return nil, fmt.Errorf("obs: %s line %d: capture record v%d is newer than supported v%d", file, li+1, rec.V, CaptureFormatVersion)
			}
			out = append(out, rec)
		}
	}
	return out, nil
}

// splitLines splits on '\n' without dropping a trailing unterminated
// fragment (needed to detect torn tails).
func splitLines(data []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			lines = append(lines, data[start:i])
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, data[start:])
	}
	return lines
}

// RowHash folds result rows into an order-sensitive 64-bit hash over
// their canonical JSON encoding. Both sides of a capture/replay diff —
// the server streaming native values and a replayer re-reading the wire
// with json.Number — produce identical bytes for identical rows, so
// equal hashes mean bit-identical answers.
type RowHash struct {
	h      hash.Hash64
	failed bool
}

// NewRowHash creates an empty row hash (the hash of zero rows is the
// FNV-64a offset basis).
func NewRowHash() *RowHash {
	return &RowHash{h: fnv.New64a()}
}

// Add folds one row in.
func (r *RowHash) Add(row []any) {
	b, err := json.Marshal(row)
	if err != nil {
		r.failed = true
		return
	}
	r.AddJSON(b)
}

// AddJSON folds in one row already encoded exactly as json.Marshal
// encodes it.
func (r *RowHash) AddJSON(b []byte) {
	r.h.Write(b)
	r.h.Write(newline)
}

var newline = []byte{'\n'}

// Sum returns the hex digest, or "!unhashable" if any row failed to
// encode.
func (r *RowHash) Sum() string {
	if r.failed {
		return "!unhashable"
	}
	return fmt.Sprintf("%016x", r.h.Sum64())
}
