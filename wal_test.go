package dmfsgd

import (
	"bytes"
	"context"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dmfsgd/internal/dataset"
)

var update = flag.Bool("update", false, "rewrite the golden WAL segment")

// goldenWALMeasurements is the golden segment's stream: RTT-like
// records, then values whose JSON number form is hardest and two
// records the log cannot represent (a self-pair and a NaN), which it
// drops.
func goldenWALMeasurements() []Measurement {
	rng := rand.New(rand.NewSource(7))
	var ms []Measurement
	for k := 0; k < 40; k++ {
		i := rng.Intn(50)
		ms = append(ms, Measurement{T: float64(k) * 0.25, I: i, J: (i + 1 + rng.Intn(49)) % 50, Value: rng.ExpFloat64() * 80})
	}
	return append(ms,
		Measurement{T: 1e-7, I: 1, J: 2, Value: 1e21},
		Measurement{T: math.Copysign(0, -1), I: 3, J: 4, Value: 1.0 / 3.0},
		Measurement{T: 40, I: 5, J: 6, Value: math.SmallestNonzeroFloat64},
		Measurement{T: 41, I: 7, J: 8, Value: math.MaxFloat64},
		Measurement{T: 42, I: 9, J: 9, Value: 1},
		Measurement{T: 43, I: 10, J: 11, Value: math.NaN()},
		Measurement{T: 44, I: 1 << 40, J: 0, Value: 999999.999999},
		Measurement{T: 45, I: 2, J: 1, Value: 1e-6},
	)
}

// TestWALSegmentGolden pins a WAL segment byte for byte — header,
// measurement lines and one commit of each mode — to the segment the
// log's original encoding/json writer produced, so every segment and
// capture already on disk keeps reading. Run with -update to rewrite
// testdata/wal_segment.golden.
func TestWALSegmentGolden(t *testing.T) {
	dir := t.TempDir()
	ws := walDir(t, &sliceSource{ms: goldenWALMeasurements()}, dir, 0)
	commits := []dataset.WALCommit{
		{Steps: 16, Draws: 33, Cursors: [][]uint64{{16}, {}}},
		{Batch: true, Steps: 32, Draws: 65, Cursors: [][]uint64{{32}, {7, 9}}},
		{Skip: true, Steps: 32, Draws: 97},
	}
	buf := make([]Measurement, 16)
	for _, c := range commits {
		if n, err := ws.NextBatch(context.Background(), buf); n != len(buf) || err != nil {
			t.Fatalf("NextBatch = %d, %v", n, err)
		}
		if err := ws.commit(c); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, dataset.WALSegmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "wal_segment.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment differs from %s:\n%s\nwant:\n%s", path, got, want)
	}
	if ws.Seq() != 46 {
		t.Errorf("logged %d measurements, want 46 (48 minus the two unrepresentable)", ws.Seq())
	}
}
