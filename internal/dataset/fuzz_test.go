package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// Fuzz targets for the text loaders, mirroring internal/wire's fuzz
// style: parsers must never panic or over-allocate on arbitrary input,
// and successfully parsed data must re-encode to a form that parses
// back to the same measurements. `go test` runs the seed corpus; the CI
// fuzz smoke job explores further with -fuzz.

func FuzzReadMatrix(f *testing.F) {
	var buf bytes.Buffer
	m := GenerateRTTMatrix(RTTConfig{N: 4, Clusters: 2, Dim: 2, Spread: 50, Jitter: 3, HeightMean: 2, MinRTT: 0.5, Seed: 1})
	if err := WriteMatrix(&buf, m); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		buf.String(),
		"1 2\n3 4\n",
		"nan 2\n-1 4\n",
		"# comment\n\n1 2\n3 nan\n",
		"1 2\n3\n",
		"1e999 2\n3 4\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		m, err := ReadMatrix(strings.NewReader(data))
		if err != nil {
			return
		}
		// Parsed OK: the canonical form must parse back identically.
		var out bytes.Buffer
		if err := WriteMatrix(&out, m); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		m2, err := ReadMatrix(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("canonical form unparsable: %v", err)
		}
		if m.Rows() != m2.Rows() || m.Cols() != m2.Cols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d", m.Rows(), m.Cols(), m2.Rows(), m2.Cols())
		}
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				a, b := m.At(i, j), m2.At(i, j)
				if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
					t.Fatalf("round trip changed (%d,%d): %v -> %v", i, j, a, b)
				}
			}
		}
	})
}

func FuzzReadTrace(f *testing.F) {
	for _, seed := range []string{
		"0.5,0,1,42.0\n1.5,1,0,43.0\n",
		"# header\n0.000001,3,7,132.5\n",
		"0.5,0,1\n",
		"0.5,-1,1,42.0\n",
		"0.5,0,0,42.0\n",
		"nan,0,1,42.0\n",
		"0.5,0,1,1e999\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		trace, err := ReadTrace(strings.NewReader(data))
		if err != nil {
			return
		}
		for k, m := range trace {
			if m.I < 0 || m.J < 0 || m.I == m.J {
				t.Fatalf("record %d: invalid pair (%d,%d) survived validation", k, m.I, m.J)
			}
			if math.IsNaN(m.T) || math.IsNaN(m.Value) {
				t.Fatalf("record %d: non-finite field survived validation", k)
			}
			if k > 0 && trace[k].T < trace[k-1].T {
				t.Fatalf("record %d: trace not time-sorted", k)
			}
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, trace); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		trace2, err := ReadTrace(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("canonical form unparsable: %v", err)
		}
		if len(trace2) != len(trace) {
			t.Fatalf("round trip changed length: %d -> %d", len(trace), len(trace2))
		}
	})
}

func FuzzReadWAL(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteWALHeader(&buf, 3)
	_ = WriteStream(&buf, []Measurement{{T: 0.5, I: 0, J: 1, Value: 42}})
	_ = WriteWALCommit(&buf, WALCommit{Seq: 4, Batch: true, Steps: 10, Draws: 20, Cursors: [][]uint64{{1}, {}}})
	for _, seed := range []string{
		buf.String(),
		`{"wal":1,"seq":0}`,
		`{"wal":99,"seq":0}`,
		`{"commit":{"seq":1,"mode":"s","steps":2,"draws":3}}`,
		`{"commit":{"seq":1,"mode":"b","cur":[[1,2],[3]]}}`,
		`{"t":1,"i":0,"j":1,"v":2}`,
		`{"t":1,"i":0,"v":2}`,
		"not json",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		sc := NewWALScanner(strings.NewReader(data))
		prev := int64(0)
		for {
			var rec WALRecord
			err := sc.Next(&rec)
			if err != nil {
				// Clean EOF or a descriptive error; either way Offset must
				// still mark the end of the last whole record.
				if sc.Offset() < prev || sc.Offset() > int64(len(data)) {
					t.Fatalf("offset %d out of [%d,%d]", sc.Offset(), prev, len(data))
				}
				return
			}
			if sc.Offset() < prev {
				t.Fatalf("offset went backwards: %d -> %d", prev, sc.Offset())
			}
			prev = sc.Offset()
			switch rec.Kind {
			case WALMeasurementRecord:
				if rec.M.I < 0 || rec.M.J < 0 || rec.M.I == rec.M.J ||
					math.IsNaN(rec.M.T) || math.IsNaN(rec.M.Value) {
					t.Fatalf("invalid measurement survived validation: %+v", rec.M)
				}
			case WALCommitRecord:
				if len(rec.Commit.Cursors) > MaxWALCursorLayers {
					t.Fatalf("oversized cursor set survived validation")
				}
				// Accepted commits must re-encode and re-parse identically.
				var out bytes.Buffer
				if err := WriteWALCommit(&out, rec.Commit); err != nil {
					t.Fatalf("re-encode failed: %v", err)
				}
			case WALHeaderRecord:
			default:
				t.Fatalf("unknown record kind %d", rec.Kind)
			}
		}
	})
}

func FuzzReadStream(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteStream(&buf, []Measurement{{T: 0.5, I: 0, J: 1, Value: 42}, {T: 1.5, I: 3, J: 7, Value: 132.25}})
	for _, seed := range []string{
		buf.String(),
		`{"t":1,"i":0,"j":1,"v":2}`,
		`{"t":1,"i":-1,"j":1,"v":2}`,
		`{"t":1,"i":2,"j":2,"v":2}`,
		`{"t":null,"i":0,"j":1,"v":2}`,
		`{"t":1,"i":0,"j":1,"v":2}{"t":2,"i":1,"j":0,"v":3}`,
		"not json",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		ms, err := ReadStream(strings.NewReader(data))
		if err != nil {
			return
		}
		for k, m := range ms {
			if m.I < 0 || m.J < 0 || m.I == m.J {
				t.Fatalf("record %d: invalid pair (%d,%d) survived validation", k, m.I, m.J)
			}
		}
		// NDJSON round-trips float64 exactly: re-encode, re-parse, compare.
		var out bytes.Buffer
		if err := WriteStream(&out, ms); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		ms2, err := ReadStream(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("canonical form unparsable: %v", err)
		}
		if len(ms2) != len(ms) {
			t.Fatalf("round trip changed length: %d -> %d", len(ms), len(ms2))
		}
		for k := range ms {
			if ms[k] != ms2[k] {
				t.Fatalf("round trip changed record %d: %+v -> %+v", k, ms[k], ms2[k])
			}
		}
	})
}

// FuzzAppendStream: for any finite time and value and any ids,
// AppendStream writes exactly encoding/json's bytes.
func FuzzAppendStream(f *testing.F) {
	for k, v := range edgeFloats {
		f.Add(v, k, k+1, -v)
	}
	f.Add(0.5, -3, math.MaxInt, 1e-320)
	f.Fuzz(func(t *testing.T, tv float64, i, j int, v float64) {
		if !finite(tv) || !finite(v) {
			return
		}
		ms := []Measurement{{T: tv, I: i, J: j, Value: v}}
		sameLines(t, AppendStream(nil, ms), jsonStream(t, ms))
	})
}
