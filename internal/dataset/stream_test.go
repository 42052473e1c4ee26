package dataset

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestStreamRoundTrip(t *testing.T) {
	in := []Measurement{
		{T: 0.125, I: 0, J: 1, Value: 42.875},
		{T: 1.5, I: 7, J: 3, Value: 1.0 / 3.0}, // not representable in decimal
		{T: 2.25, I: 3, J: 9, Value: 1e-12},
	}
	var buf bytes.Buffer
	if err := WriteStream(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for k := range in {
		if in[k] != out[k] {
			t.Errorf("record %d: %+v != %+v (NDJSON must round-trip float64 exactly)", k, in[k], out[k])
		}
	}
}

func TestStreamScannerErrors(t *testing.T) {
	cases := map[string]string{
		"negative id": `{"t":1,"i":-1,"j":0,"v":2}`,
		"self pair":   `{"t":1,"i":3,"j":3,"v":2}`,
		"bad json":    `{"t":1,`,
		"non-finite":  `{"t":1e999,"i":0,"j":1,"v":2}`,
	}
	for name, data := range cases {
		sc := NewStreamScanner(strings.NewReader(data))
		var m Measurement
		if err := sc.Next(&m); err == nil || err == io.EOF {
			t.Errorf("%s: err = %v, want a validation error", name, err)
		}
	}
	// A valid prefix is delivered before the error surfaces.
	sc := NewStreamScanner(strings.NewReader(
		`{"t":1,"i":0,"j":1,"v":2}` + "\n" + `{"t":2,"i":5,"j":5,"v":2}`))
	var m Measurement
	if err := sc.Next(&m); err != nil || m.I != 0 || m.J != 1 {
		t.Fatalf("first record: %+v, %v", m, err)
	}
	if err := sc.Next(&m); err == nil {
		t.Fatal("invalid second record accepted")
	}
}

func TestReadTraceRejectsInvalidRecords(t *testing.T) {
	for name, data := range map[string]string{
		"negative src": "0.5,-1,1,42\n",
		"negative dst": "0.5,1,-2,42\n",
		"self pair":    "0.5,3,3,42\n",
		"nan time":     "nan,0,1,42\n",
		"inf value":    "0.5,0,1,1e999\n",
	} {
		if _, err := ReadTrace(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// jsonStream is the reference encoding: encoding/json's bytes for each
// record's streamRecord.
func jsonStream(t testing.TB, ms []Measurement) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, m := range ms {
		if err := enc.Encode(streamRecord{T: m.T, I: m.I, J: m.J, V: m.Value}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// sameLines fails at the first line where got and want differ.
func sameLines(t testing.TB, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for k := 0; k < min(len(gl), len(wl)); k++ {
		if !bytes.Equal(gl[k], wl[k]) {
			t.Fatalf("line %d: got %s, encoding/json writes %s", k+1, gl[k], wl[k])
		}
	}
	t.Fatalf("got %d lines, encoding/json writes %d", len(gl), len(wl))
}

// edgeFloats are the values where encoding/json's number form changes or
// strconv's shortest digits are hardest.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 1.0 / 3.0, 0.1, 42.875, 123456789.125,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	1e-7, 1e-10, 1e-100, 1.5e-300,
	1e20, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e22, 1e100, 1e300,
	math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), // smallest and largest subnormal
	math.Float64frombits(0x0010000000000000), // smallest normal
	math.MaxFloat64,
}

// TestAppendStreamMatchesJSON pins AppendStream to encoding/json byte for
// byte: every edge value of either sign, then 100k records whose time and
// value are random float64 bit patterns (non-finite ones skipped) and
// whose ids span the int range. WriteStream, which chunks the same
// encoder, must write the same bytes.
func TestAppendStreamMatchesJSON(t *testing.T) {
	var ms []Measurement
	for k, f := range edgeFloats {
		ms = append(ms, Measurement{T: f, I: k, J: k + 1, Value: -f}, Measurement{T: -f, I: k + 1, J: k, Value: f})
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 100_000; {
		tv, v := math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())
		if !finite(tv) || !finite(v) {
			continue
		}
		ms = append(ms, Measurement{T: tv, I: int(rng.Uint64()), J: rng.Intn(1 << 20), Value: v})
		n++
	}
	want := jsonStream(t, ms)
	sameLines(t, AppendStream(nil, ms), want)
	var buf bytes.Buffer
	if err := WriteStream(&buf, ms); err != nil {
		t.Fatal(err)
	}
	sameLines(t, buf.Bytes(), want)
}

// TestWriteStreamNonFinite: a non-finite record fails the write, naming
// it, after the records before it are written.
func TestWriteStreamNonFinite(t *testing.T) {
	ms := make([]Measurement, 600)
	for k := range ms {
		ms[k] = Measurement{T: float64(k), I: 0, J: 1, Value: 2}
	}
	ms[555].Value = math.Inf(-1)
	var buf bytes.Buffer
	err := WriteStream(&buf, ms)
	if err == nil || !strings.Contains(err.Error(), "record 556") {
		t.Fatalf("err = %v, want a non-finite error naming record 556", err)
	}
	got, rerr := ReadStream(&buf)
	if rerr != nil || len(got) != 555 {
		t.Fatalf("wrote %d readable records (%v), want the 555 before the bad one", len(got), rerr)
	}
}
