package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden checkpoint fixture")

// goldenCheckpoint is the fixed fixture: every field exercised, values
// chosen so byte-level drift in any section shows up.
func goldenCheckpoint() *Checkpoint {
	return &Checkpoint{
		N: 4, Rank: 2, Shards: 2, K: 3,
		Steps:  12345,
		Seed:   -7,
		Draws:  99991,
		WALSeq: 42,
		Tau:    95.5, Eta: 0.1, Lambda: 0.05,
		Loss: 1, Metric: 2,
		Incarnation: 7,
		NodeDraws:   []uint64{10, 20, 30, 40},
		Cursors:     [][]uint64{{7}, {}, {1, 2, 3}},
		Vers:        []uint64{5, 9},
		// Shard 0 holds nodes 0 and 2, shard 1 nodes 1 and 3.
		U: [][]float64{{0.125, -1.5, -0.0625, 7}, {2.25, 3, 8.5, -9}},
		V: [][]float64{{1, 2, 5.5, -6.5}, {3, 4, 7.75, 0.0078125}},
	}
}

func encode(t *testing.T, c *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := goldenCheckpoint()
	got, err := Read(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestGoldenFile pins the current (v3) byte layout: encoding the fixture
// must reproduce the committed file exactly, and decoding the committed
// file must reproduce the fixture. Any layout change breaks this test —
// bump Version and add a new fixture instead of silently reshaping an
// existing version.
func TestGoldenFile(t *testing.T) {
	path := filepath.Join("testdata", "checkpoint_v3.golden")
	enc := encode(t, goldenCheckpoint())
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(enc, want) {
		t.Errorf("encoding drifted from the committed v3 fixture (%d vs %d bytes)", len(enc), len(want))
	}
	dec, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if !reflect.DeepEqual(dec, goldenCheckpoint()) {
		t.Errorf("golden decode mismatch: %+v", dec)
	}
}

// TestGoldenDeltaFile pins the v3 delta byte layout the same way.
func TestGoldenDeltaFile(t *testing.T) {
	path := filepath.Join("testdata", "delta_v3.golden")
	c := goldenCheckpoint()
	prev := []uint64{5, 4} // shard 1 advanced (4 → 9), shard 0 quiet
	var buf bytes.Buffer
	if err := WriteDelta(&buf, c, prev); err != nil {
		t.Fatalf("WriteDelta: %v", err)
	}
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("delta encoding drifted from the committed fixture (%d vs %d bytes)", buf.Len(), len(want))
	}
	d, err := ReadDelta(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("decode golden delta: %v", err)
	}
	if d.Head.U[0] != nil || !reflect.DeepEqual(d.Head.U[1], goldenCheckpoint().U[1]) {
		t.Fatalf("golden delta blocks = %v, want exactly shard 1", d.Head.U)
	}
}

func TestReadRejectsBadHeader(t *testing.T) {
	enc := encode(t, goldenCheckpoint())

	bad := bytes.Clone(enc)
	bad[0] = 'X'
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: got %v, want ErrBadMagic", err)
	}

	// A version-bumped header — or one of the retired flat-layout
	// versions 1 and 2 — must fail with the typed sentinel, not a panic
	// and not a misparse.
	for _, v := range []uint16{1, 2, Version + 1} {
		other := bytes.Clone(enc)
		binary.BigEndian.PutUint16(other[4:], v)
		if _, err := Read(bytes.NewReader(other)); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d: got %v, want ErrBadVersion", v, err)
		}
	}

	for _, cut := range []int{0, 3, 5, 20, len(enc) / 2, len(enc) - 1} {
		if _, err := Read(bytes.NewReader(enc[:cut])); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}

	flipped := bytes.Clone(enc)
	flipped[len(flipped)-10] ^= 0x40 // payload byte: CRC must catch it
	if _, err := Read(bytes.NewReader(flipped)); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped payload byte: got %v, want ErrChecksum", err)
	}

	trailing := append(bytes.Clone(enc), 0)
	if _, err := Read(bytes.NewReader(trailing)); !errors.Is(err, ErrInvalid) {
		t.Errorf("trailing byte: got %v, want ErrInvalid", err)
	}
}

// forgedRecord returns a record header declaring n = 2²⁰ nodes of rank
// 64 in one shard, cut right after its block count: 99 bytes for a full
// record, 107 for a delta. A decoder that sized the state by the
// geometry would allocate 1 GiB for it before one coordinate arrived.
func forgedRecord(kind byte) []byte {
	var buf bytes.Buffer
	if err := writeHead(&buf, &Checkpoint{N: 1 << 20, Rank: 64, Shards: 1, Vers: []uint64{1}}, kind); err != nil {
		panic(err)
	}
	if kind == kindDelta {
		if err := writeUint64s(&buf, []uint64{0}); err != nil {
			panic(err)
		}
	}
	buf.Write([]byte{0, 0, 0, 1})
	return buf.Bytes()
}

// TestReadBoundsAllocationByPayload: the package promise that a corrupt
// file never causes an attacker-sized allocation. A forged header
// declaring a 2²⁰×64 state followed by no coordinate bytes must fail as
// truncated having allocated little more than one read chunk.
func TestReadBoundsAllocationByPayload(t *testing.T) {
	full, delta := forgedRecord(kindFull), forgedRecord(kindDelta)
	if len(full) != 99 {
		t.Fatalf("forged full record is %d bytes, want 99", len(full))
	}
	for _, tc := range []struct {
		name string
		read func() error
	}{
		{"full", func() error { _, err := Read(bytes.NewReader(full)); return err }},
		{"delta", func() error { _, err := ReadDelta(bytes.NewReader(delta)); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.read()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: got %v, want ErrTruncated", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
			t.Errorf("%s: decoding a %d-byte forged header allocated %d bytes, want < 4 MiB", tc.name, len(full), got)
		}
	}
}

func TestReadRejectsOversizedGeometry(t *testing.T) {
	enc := encode(t, goldenCheckpoint())
	huge := bytes.Clone(enc)
	binary.BigEndian.PutUint32(huge[7:], 1<<30) // n field (after the kind byte)
	if _, err := Read(bytes.NewReader(huge)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("huge n: got %v, want ErrTooLarge", err)
	}
}

func TestValidateRejectsInconsistency(t *testing.T) {
	c := goldenCheckpoint()
	c.Vers = c.Vers[:1]
	if err := c.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("short version vector: got %v, want ErrInvalid", err)
	}
	c = goldenCheckpoint()
	c.Tau = math.NaN()
	if err := c.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("NaN tau: got %v, want ErrInvalid", err)
	}
	c = goldenCheckpoint()
	c.NodeDraws = c.NodeDraws[:2]
	if err := c.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("partial node draws: got %v, want ErrInvalid", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	c := goldenCheckpoint()
	if err := WriteFile(path, c); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Error("file round trip mismatch")
	}
	// Overwrite with different content; no temp litter left behind.
	c.Steps = 999
	if err := WriteFile(path, c); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	got, err = ReadFile(path)
	if err != nil || got.Steps != 999 {
		t.Fatalf("overwrite not visible: %+v, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temp files left behind: %v", ents)
	}
}

// advance mutates c as one more save interval of training would: shard
// p's rows move (into a fresh block, as a snapshot refresh would) and its
// version bumps; counters advance.
func advance(c *Checkpoint, shard int, by float64) {
	u := append([]float64(nil), c.U[shard]...)
	v := append([]float64(nil), c.V[shard]...)
	for k := range u {
		u[k] += by
		v[k] -= by
	}
	c.U[shard], c.V[shard] = u, v
	c.Vers[shard]++
	c.Steps += 100
	c.Draws += 7
	c.WALSeq += 3
}

func TestDeltaRoundTripAndApply(t *testing.T) {
	base := goldenCheckpoint()
	next := goldenCheckpoint()
	advance(next, 1, 0.5)

	var buf bytes.Buffer
	if err := WriteDelta(&buf, next, base.Vers); err != nil {
		t.Fatalf("WriteDelta: %v", err)
	}
	if full := len(encode(t, next)); buf.Len() >= full {
		t.Errorf("one-dirty-shard delta (%d bytes) not smaller than full (%d bytes)", buf.Len(), full)
	}
	d, err := ReadDelta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadDelta: %v", err)
	}
	if d.Head.U[0] != nil || d.Head.U[1] == nil {
		t.Fatalf("blocks = %v, want exactly shard 1", d.Head.U)
	}
	if err := ApplyDelta(base, d); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if !reflect.DeepEqual(base, next) {
		t.Errorf("base+delta mismatch:\n got %+v\nwant %+v", base, next)
	}

	// A delta where nothing advanced still carries the counters.
	quiet := goldenCheckpoint()
	quiet.Steps, quiet.WALSeq = 99999, 77
	buf.Reset()
	if err := WriteDelta(&buf, quiet, quiet.Vers); err != nil {
		t.Fatalf("WriteDelta quiet: %v", err)
	}
	d, err = ReadDelta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadDelta quiet: %v", err)
	}
	if d.Head.U[0] != nil || d.Head.U[1] != nil || d.Head.Steps != 99999 || d.Head.WALSeq != 77 {
		t.Fatalf("quiet delta = blocks %v, steps %d", d.Head.U, d.Head.Steps)
	}
}

func TestApplyDeltaRejectsWrongBase(t *testing.T) {
	base := goldenCheckpoint()
	next := goldenCheckpoint()
	advance(next, 0, 1)
	var buf bytes.Buffer
	if err := WriteDelta(&buf, next, base.Vers); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDelta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	moved := goldenCheckpoint()
	moved.Vers[0] = 100 // not the state the delta was cut against
	if err := ApplyDelta(moved, d); !errors.Is(err, ErrChain) {
		t.Errorf("version mismatch: got %v, want ErrChain", err)
	}
	reseeded := goldenCheckpoint()
	reseeded.Seed = 1
	if err := ApplyDelta(reseeded, d); !errors.Is(err, ErrChain) {
		t.Errorf("seed mismatch: got %v, want ErrChain", err)
	}
}

func TestReadKindMismatch(t *testing.T) {
	full := encode(t, goldenCheckpoint())
	if _, err := ReadDelta(bytes.NewReader(full)); !errors.Is(err, ErrKind) {
		t.Errorf("ReadDelta on full: got %v, want ErrKind", err)
	}
	next := goldenCheckpoint()
	advance(next, 1, 0.5)
	var buf bytes.Buffer
	if err := WriteDelta(&buf, next, goldenCheckpoint().Vers); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrKind) {
		t.Errorf("Read on delta: got %v, want ErrKind", err)
	}
}

// TestChainWriterAndLoadChain drives the base-every-K policy through
// two chain epochs and checks LoadChain resolves each prefix, prunes
// land where they should, and stale deltas from the previous epoch are
// ignored on their PrevVers linkage.
func TestChainWriterAndLoadChain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	cw := NewChainWriter(path, 3)

	cur := goldenCheckpoint()
	saves := []*Checkpoint{}
	save := func(wantDelta bool) {
		t.Helper()
		snap := cloneCheckpoint(cur)
		delta, err := cw.Save(snap)
		if err != nil {
			t.Fatalf("save %d: %v", len(saves), err)
		}
		if delta != wantDelta {
			t.Fatalf("save %d: delta=%v, want %v", len(saves), delta, wantDelta)
		}
		saves = append(saves, snap)
		got, n, err := LoadChain(path)
		if err != nil {
			t.Fatalf("LoadChain after save %d: %v", len(saves)-1, err)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("LoadChain after save %d drifted:\n got %+v\nwant %+v", len(saves)-1, got, snap)
		}
		wantN := (len(saves) - 1) % 4 // each epoch is base + 3 deltas
		if n != wantN {
			t.Fatalf("LoadChain after save %d: %d deltas, want %d", len(saves)-1, n, wantN)
		}
	}

	save(false) // base
	advance(cur, 0, 0.25)
	save(true) // d001
	advance(cur, 1, 0.25)
	save(true) // d002
	advance(cur, 0, 0.25)
	advance(cur, 1, 0.25)
	save(true) // d003
	advance(cur, 0, 0.25)
	save(false) // rolls to a new base, prunes d001..d003
	for i := 1; i <= 3; i++ {
		if _, err := os.Stat(DeltaPath(path, i)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stale delta %d survived the base roll: %v", i, err)
		}
	}
	advance(cur, 1, 0.25)
	save(true) // d001 of the new epoch

	// A stale orphan beyond the live chain must not extend it.
	stale := cloneCheckpoint(cur)
	stale.Vers[0] += 41 // linkage that matches no real state
	if err := WriteDeltaFile(DeltaPath(path, 2), stale, stale.Vers); err != nil {
		t.Fatal(err)
	}
	got, n, err := LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !reflect.DeepEqual(got, saves[len(saves)-1]) {
		t.Errorf("stale orphan extended the chain: n=%d", n)
	}
}

func cloneCheckpoint(c *Checkpoint) *Checkpoint {
	out := *c
	out.NodeDraws = append([]uint64(nil), c.NodeDraws...)
	out.Cursors = make([][]uint64, len(c.Cursors))
	for i, cur := range c.Cursors {
		out.Cursors[i] = append([]uint64{}, cur...)
	}
	out.Vers = append([]uint64(nil), c.Vers...)
	out.U = append([][]float64(nil), c.U...) // blocks are immutable: share them
	out.V = append([][]float64(nil), c.V...)
	return &out
}

// TestLargeStateRoundTrip pins the point of the v3 chunked layout: a
// state past the one-frame wire budget (n·rank > wire.MaxStateFloats,
// unwritable before v3) round-trips through file save/load.
func TestLargeStateRoundTrip(t *testing.T) {
	n, rank := 4100, 512 // n·rank = 2,099,200 > 2,097,152
	c := &Checkpoint{
		N: n, Rank: rank, Shards: 64, K: 10,
		Steps: 5, Seed: 3, Tau: 50, Eta: 0.1, Lambda: 0.01,
		Vers: make([]uint64, 64),
		U:    make([][]float64, 64),
		V:    make([][]float64, 64),
	}
	for p := range c.Vers {
		c.Vers[p] = uint64(p)
		rows := (n - p + c.Shards - 1) / c.Shards
		c.U[p] = make([]float64, rows*rank)
		c.V[p] = make([]float64, rows*rank)
		for k := range c.U[p] {
			c.U[p][k] = float64((p+k)%97) * 0.125
			c.V[p][k] = -float64((p+k)%89) * 0.25
		}
	}
	path := filepath.Join(t.TempDir(), "big.ckpt")
	if err := WriteFile(path, c); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Error("large state drifted through the chunked layout")
	}
	// And incrementally: dirty one shard, save a delta, re-resolve.
	advance(c, 7, 0.5)
	if err := WriteDeltaFile(DeltaPath(path, 1), c, got.Vers); err != nil {
		t.Fatalf("WriteDeltaFile: %v", err)
	}
	st, err := os.Stat(DeltaPath(path, 1))
	if err != nil {
		t.Fatal(err)
	}
	if full, _ := os.Stat(path); st.Size() > full.Size()/8 {
		t.Errorf("one shard of 64 dirty: delta %d bytes vs full %d", st.Size(), full.Size())
	}
	resolved, nd, err := LoadChain(path)
	if err != nil || nd != 1 {
		t.Fatalf("LoadChain: n=%d, %v", nd, err)
	}
	if !reflect.DeepEqual(resolved, c) {
		t.Error("large-state delta chain drifted")
	}
}
