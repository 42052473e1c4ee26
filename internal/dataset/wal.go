package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Measurement WAL line formats. A WAL is an NDJSON log mixing three
// record kinds, written strictly in this order per training batch:
//
//	{"wal":1,"seq":B}                       segment header: format
//	                                        version and base sequence —
//	                                        B measurements were already
//	                                        committed before this file
//	                                        segment began (0 for a
//	                                        fresh WAL; a segment opened
//	                                        by rotation or after a
//	                                        checkpoint barrier bases at
//	                                        the sequence logged so far)
//	{"t":…,"i":…,"j":…,"v":…}               one sourced measurement, in
//	                                        emission order (the stream
//	                                        capture format)
//	{"commit":{"seq":S,"mode":"s",…}}       barrier: every measurement
//	                                        up to sequence S has been
//	                                        applied to the training
//	                                        state
//
// A commit carries what replay needs to reproduce the application
// exactly: mode "s" (the batch was applied sequentially, one
// Gauss-Seidel update per usable measurement), "b" (the batch was
// applied as one synchronous epoch through the engine's sharded batch
// path), or "x" (the batch was logged but discarded — a cancelled
// epoch collection — so replay must skip it too), plus the post-apply
// step counter, the master-RNG draw count, and the source-chain
// cursors. Measurements after the last commit are a torn tail: the
// crash interrupted their application, so replay discards them and the
// resumed source re-emits them deterministically.
//
// The scanner mirrors the package's other loaders: arbitrary input
// yields descriptive errors, never panics or attacker-sized
// allocations.

// WAL format limits, shared with the checkpoint format's cursor
// sections.
const (
	// WALVersion is the format version this package writes and reads.
	WALVersion = 1
	// MaxWALCursorLayers bounds the source-chain cursor count of one
	// commit record.
	MaxWALCursorLayers = 64
	// MaxWALCursorVals bounds the values one cursor layer may carry.
	MaxWALCursorVals = 64
)

// ErrWALVersion marks a WAL segment header with an unsupported version.
var ErrWALVersion = errors.New("dataset: unsupported WAL version")

// WALCommit is one decoded commit barrier.
type WALCommit struct {
	// Seq is the cumulative count of measurements covered: every
	// measurement with sequence ≤ Seq is folded into the training state.
	Seq uint64
	// Batch is true when the batch was applied through the sharded
	// epoch path ("b"), false for sequential application ("s").
	Batch bool
	// Skip is true when the covered measurements were discarded without
	// training ("x"): a cancelled epoch collection logged them, and the
	// run continued past them. Replay discards them the same way.
	// Mutually exclusive with Batch.
	Skip bool
	// Steps is the trainer's cumulative update counter after the apply.
	Steps uint64
	// Draws is the master-RNG stream position after the batch was
	// sourced.
	Draws uint64
	// Cursors holds the source-chain stream positions, outermost layer
	// first.
	Cursors [][]uint64
}

// WALRecordKind discriminates scanned WAL lines.
type WALRecordKind uint8

const (
	// WALHeaderRecord is a segment header line.
	WALHeaderRecord WALRecordKind = iota + 1
	// WALMeasurementRecord is one sourced measurement.
	WALMeasurementRecord
	// WALCommitRecord is a commit barrier.
	WALCommitRecord
)

// WALRecord is one scanned WAL line.
type WALRecord struct {
	Kind WALRecordKind
	// Base is the segment's base sequence (header records).
	Base uint64
	// M is the measurement (measurement records).
	M Measurement
	// Commit is the barrier (commit records).
	Commit WALCommit
}

// walCommitJSON is the wire shape of a commit barrier.
type walCommitJSON struct {
	Seq   uint64     `json:"seq"`
	Mode  string     `json:"mode"`
	Steps uint64     `json:"steps"`
	Draws uint64     `json:"draws"`
	Cur   [][]uint64 `json:"cur,omitempty"`
}

// walLine is the union shape every WAL line decodes into; pointer
// fields distinguish the record kinds.
type walLine struct {
	WAL    *int           `json:"wal"`
	Seq    *uint64        `json:"seq"`
	Commit *walCommitJSON `json:"commit"`
	T      *float64       `json:"t"`
	I      *int           `json:"i"`
	J      *int           `json:"j"`
	V      *float64       `json:"v"`
}

// WriteWALHeader writes a segment header line.
func WriteWALHeader(w io.Writer, baseSeq uint64) error {
	_, err := fmt.Fprintf(w, "{\"wal\":%d,\"seq\":%d}\n", WALVersion, baseSeq)
	return err
}

// WriteWALCommit writes a commit barrier line.
func WriteWALCommit(w io.Writer, c WALCommit) error {
	if len(c.Cursors) > MaxWALCursorLayers {
		return fmt.Errorf("dataset: commit carries %d cursor layers, limit %d", len(c.Cursors), MaxWALCursorLayers)
	}
	for i, cur := range c.Cursors {
		if len(cur) > MaxWALCursorVals {
			return fmt.Errorf("dataset: commit cursor layer %d carries %d values, limit %d", i, len(cur), MaxWALCursorVals)
		}
	}
	if c.Batch && c.Skip {
		return fmt.Errorf("dataset: commit cannot be both batch and skip")
	}
	mode := "s"
	switch {
	case c.Batch:
		mode = "b"
	case c.Skip:
		mode = "x"
	}
	return json.NewEncoder(w).Encode(struct {
		Commit walCommitJSON `json:"commit"`
	}{walCommitJSON{
		Seq: c.Seq, Mode: mode, Steps: c.Steps, Draws: c.Draws, Cur: c.Cursors,
	}})
}

// WAL segment files. A rotating WAL is a directory of NDJSON segments
// named wal-000001.ndjson, wal-000002.ndjson, …, each opening with its
// own header line whose base sequence counts the measurements already
// committed when the segment began. Replay concatenates the segments in
// index order into one logical log; a checkpoint barrier deletes the
// segments it fully covers instead of truncating one growing file.

const (
	walSegPrefix = "wal-"
	walSegSuffix = ".ndjson"
)

// WALSegmentName returns the file name of segment index (≥ 1).
func WALSegmentName(index int) string {
	return fmt.Sprintf("%s%06d%s", walSegPrefix, index, walSegSuffix)
}

// ParseWALSegmentName extracts the index from a segment file name; ok
// is false for anything that is not a WAL segment name.
func ParseWALSegmentName(name string) (index int, ok bool) {
	digits, found := strings.CutPrefix(name, walSegPrefix)
	if !found {
		return 0, false
	}
	digits, found = strings.CutSuffix(digits, walSegSuffix)
	if !found || len(digits) < 6 {
		return 0, false
	}
	idx, err := strconv.Atoi(digits)
	if err != nil || idx < 1 || WALSegmentName(idx) != name {
		return 0, false
	}
	return idx, true
}

// ListWALSegments returns the indices of the WAL segments present in
// dir, ascending numerically (the zero-padded names sort lexically only
// up to six digits). Non-segment files are ignored.
func ListWALSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []int
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if idx, ok := ParseWALSegmentName(e.Name()); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	return idxs, nil
}

// WALScanner reads a WAL record by record without buffering the log,
// tracking the byte offset after each decoded record so a consumer can
// truncate a torn tail at the last record it trusts.
type WALScanner struct {
	dec    *json.Decoder
	rec    int
	offset int64
}

// NewWALScanner wraps r for record-at-a-time reading.
func NewWALScanner(r io.Reader) *WALScanner {
	return &WALScanner{dec: json.NewDecoder(r)}
}

// Offset returns the input byte offset just past the last successfully
// decoded record — the position to truncate a WAL at when the bytes
// beyond it are torn or untrusted.
func (s *WALScanner) Offset() int64 { return s.offset }

// Next decodes the next record into rec. It returns io.EOF at a clean
// end of log and a descriptive error on malformed or invalid records; a
// torn final line (the crash interrupted the write) surfaces as such an
// error, and Offset still points at the end of the last whole record.
func (s *WALScanner) Next(rec *WALRecord) error {
	var line walLine
	if err := s.dec.Decode(&line); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("dataset: WAL record %d: %w", s.rec+1, err)
	}
	s.rec++
	switch {
	case line.Commit != nil:
		c := line.Commit
		if c.Mode != "s" && c.Mode != "b" && c.Mode != "x" {
			return fmt.Errorf("dataset: WAL record %d: unknown commit mode %q", s.rec, c.Mode)
		}
		if len(c.Cur) > MaxWALCursorLayers {
			return fmt.Errorf("dataset: WAL record %d: %d cursor layers exceed %d", s.rec, len(c.Cur), MaxWALCursorLayers)
		}
		for i, cur := range c.Cur {
			if len(cur) > MaxWALCursorVals {
				return fmt.Errorf("dataset: WAL record %d: cursor layer %d carries %d values, limit %d", s.rec, i, len(cur), MaxWALCursorVals)
			}
		}
		rec.Kind = WALCommitRecord
		rec.Commit = WALCommit{Seq: c.Seq, Batch: c.Mode == "b", Skip: c.Mode == "x", Steps: c.Steps, Draws: c.Draws, Cursors: c.Cur}
	case line.WAL != nil:
		if *line.WAL != WALVersion {
			return fmt.Errorf("%w: %d, this build reads %d", ErrWALVersion, *line.WAL, WALVersion)
		}
		if line.Seq == nil {
			return fmt.Errorf("dataset: WAL record %d: header missing seq", s.rec)
		}
		rec.Kind = WALHeaderRecord
		rec.Base = *line.Seq
	case line.T != nil || line.I != nil || line.J != nil || line.V != nil:
		if line.T == nil || line.I == nil || line.J == nil || line.V == nil {
			return fmt.Errorf("dataset: WAL record %d: incomplete measurement", s.rec)
		}
		if *line.I < 0 || *line.J < 0 {
			return fmt.Errorf("dataset: WAL record %d: negative node id (%d,%d)", s.rec, *line.I, *line.J)
		}
		if *line.I == *line.J {
			return fmt.Errorf("dataset: WAL record %d: self-pair %d", s.rec, *line.I)
		}
		if math.IsNaN(*line.T) || math.IsInf(*line.T, 0) || math.IsNaN(*line.V) || math.IsInf(*line.V, 0) {
			return fmt.Errorf("dataset: WAL record %d: non-finite time or value", s.rec)
		}
		rec.Kind = WALMeasurementRecord
		rec.M = Measurement{T: *line.T, I: *line.I, J: *line.J, Value: *line.V}
	default:
		return fmt.Errorf("dataset: WAL record %d: unrecognized record shape", s.rec)
	}
	s.offset = s.dec.InputOffset()
	return nil
}
