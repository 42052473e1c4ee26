package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// streamRecord is the NDJSON shape of one measurement: one JSON object
// per line, {"t":1.5,"i":3,"j":7,"v":42.1}. The format is the capture /
// replay interchange for measurement streams (cmd/datagen -stream,
// live-swarm captures): unlike the CSV trace format it round-trips
// float64 values exactly and is consumed record by record, so a stream
// can be replayed without materializing it.
type streamRecord struct {
	T float64 `json:"t"`
	I int     `json:"i"`
	J int     `json:"j"`
	V float64 `json:"v"`
}

// streamChunk is how many records WriteStream encodes per Write: enough
// to amortize the call, few enough that a capture of any length is
// written from a buffer of a few tens of kilobytes.
const streamChunk = 512

// WriteStream writes measurements as NDJSON, one record per line, in
// slice order (streams are replayed in file order — writers should emit
// time-ordered measurements). Records are encoded with AppendStream in
// chunks of streamChunk, one Write each. JSON cannot spell a non-finite
// time or value: the records before the first such one are written and
// the call fails naming it.
func WriteStream(w io.Writer, ms []Measurement) error {
	var buf []byte
	for start := 0; start < len(ms); start += streamChunk {
		chunk := ms[start:min(start+streamChunk, len(ms))]
		bad := slices.IndexFunc(chunk, func(m Measurement) bool { return !finite(m.T) || !finite(m.Value) })
		if bad >= 0 {
			chunk = chunk[:bad]
		}
		buf = AppendStream(buf[:0], chunk)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if bad >= 0 {
			return fmt.Errorf("dataset: stream record %d: non-finite time or value", start+bad+1)
		}
	}
	return nil
}

// AppendStream appends ms to dst as NDJSON stream records and returns
// the extended buffer. The bytes equal what encoding/json writes for
// streamRecord, one line per measurement, so captures and WAL segments
// read the same whichever encoder wrote them. T and Value must be
// finite; callers validate first.
func AppendStream(dst []byte, ms []Measurement) []byte {
	for i := range ms {
		m := &ms[i]
		dst = append(dst, `{"t":`...)
		dst = appendJSONFloat(dst, m.T)
		dst = append(dst, `,"i":`...)
		dst = strconv.AppendInt(dst, int64(m.I), 10)
		dst = append(dst, `,"j":`...)
		dst = strconv.AppendInt(dst, int64(m.J), 10)
		dst = append(dst, `,"v":`...)
		dst = appendJSONFloat(dst, m.Value)
		dst = append(dst, "}\n"...)
	}
	return dst
}

// appendJSONFloat formats f as encoding/json does, after ES6's number to
// string conversion: the shortest digits that round-trip, in 'f' form
// unless 0 < |f| < 1e-6 or |f| ≥ 1e21, where it is 'e' form with a
// negative exponent's leading zero dropped (1e-07 becomes 1e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// StreamScanner reads an NDJSON measurement stream record by record
// without buffering the whole stream, validating each record as it is
// decoded. Malformed input yields an error naming the record, never a
// panic or an attacker-sized allocation.
type StreamScanner struct {
	dec *json.Decoder
	rec int
}

// NewStreamScanner wraps r for record-at-a-time reading.
func NewStreamScanner(r io.Reader) *StreamScanner {
	return &StreamScanner{dec: json.NewDecoder(r)}
}

// Next decodes the next record into m. It returns io.EOF at a clean end
// of stream and a descriptive error on malformed or invalid records
// (negative node ids, a self-pair, non-finite time or value).
func (s *StreamScanner) Next(m *Measurement) error {
	var rec streamRecord
	if err := s.dec.Decode(&rec); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("dataset: stream record %d: %w", s.rec+1, err)
	}
	s.rec++
	if rec.I < 0 || rec.J < 0 {
		return fmt.Errorf("dataset: stream record %d: negative node id (%d,%d)", s.rec, rec.I, rec.J)
	}
	if rec.I == rec.J {
		return fmt.Errorf("dataset: stream record %d: self-pair %d", s.rec, rec.I)
	}
	if math.IsNaN(rec.T) || math.IsInf(rec.T, 0) || math.IsNaN(rec.V) || math.IsInf(rec.V, 0) {
		return fmt.Errorf("dataset: stream record %d: non-finite time or value", s.rec)
	}
	m.T, m.I, m.J, m.Value = rec.T, rec.I, rec.J, rec.V
	return nil
}

// ReadStream materializes a whole NDJSON stream. Replay paths should
// prefer StreamScanner, which does not hold the stream in memory; this
// is the convenience form for tools and tests.
func ReadStream(r io.Reader) ([]Measurement, error) {
	sc := NewStreamScanner(r)
	var out []Measurement
	for {
		var m Measurement
		err := sc.Next(&m)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
}
