package ckpt

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzReadCheckpoint feeds arbitrary bytes to the decoder: it must
// never panic and never allocate past the format limits, and anything
// it does accept must re-encode and re-decode to the same value.
func FuzzReadCheckpoint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DMFC"))
	enc := &bytes.Buffer{}
	if err := Write(enc, &Checkpoint{
		N: 3, Rank: 2, Shards: 2, K: 1,
		Steps: 7, Seed: 42, Draws: 100, WALSeq: 3,
		Tau: 50, Eta: 0.1, Lambda: 0.1, Loss: 0, Metric: 1,
		NodeDraws: []uint64{1, 2, 3},
		Cursors:   [][]uint64{{9}},
		Vers:      []uint64{1, 2},
		U:         [][]float64{{1, 2, 5, 6}, {3, 4}},
		V:         [][]float64{{6, 5, 2, 1}, {4, 3}},
	}); err != nil {
		f.Fatal(err)
	}
	valid := enc.Bytes()
	f.Add(bytes.Clone(valid))
	f.Add(bytes.Clone(valid[:len(valid)/2]))
	// A header declaring enormous sections with no payload behind it.
	huge := bytes.Clone(valid[:7+headerLen])
	binary.BigEndian.PutUint32(huge[7:], 1<<19)
	f.Add(huge)
	f.Add(forgedRecord(kindFull))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted checkpoint fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, c); err != nil {
			t.Fatalf("re-encode of accepted checkpoint failed: %v", err)
		}
		c2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatal("re-encode round trip drifted")
		}
	})
}

// FuzzReadDelta feeds arbitrary bytes to the v3 chunked delta decoder:
// it must never panic, and any delta it accepts must apply cleanly to
// the base it declares (its own PrevVers) and re-encode byte-stably.
func FuzzReadDelta(f *testing.F) {
	mk := func(vers, prevVers []uint64, mut func(c *Checkpoint)) []byte {
		c := &Checkpoint{
			N: 5, Rank: 2, Shards: 3, K: 1,
			Steps: 9, Seed: 11, Draws: 2, WALSeq: 4,
			Tau: 40, Eta: 0.05, Lambda: 0.01, Loss: 1, Metric: 0,
			Vers: vers,
			U:    [][]float64{{1, 2, 7, 8}, {3, 4, 9, 10}, {5, 6}},
			V:    [][]float64{{10, 9, 4, 3}, {8, 7, 2, 1}, {6, 5}},
		}
		if mut != nil {
			mut(c)
		}
		var buf bytes.Buffer
		if err := WriteDelta(&buf, c, prevVers); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte("DMFC"))
	one := mk([]uint64{3, 1, 2}, []uint64{3, 0, 2}, nil)
	f.Add(bytes.Clone(one))
	f.Add(bytes.Clone(one[:len(one)/2]))
	f.Add(mk([]uint64{1, 1, 1}, []uint64{1, 1, 1}, nil)) // zero blocks
	f.Add(mk([]uint64{2, 2, 2}, []uint64{1, 1, 1}, func(c *Checkpoint) {
		c.NodeDraws = []uint64{1, 2, 3, 4, 5}
		c.Cursors = [][]uint64{{6}}
	}))
	f.Add(forgedRecord(kindDelta))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDelta(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Rebuild the base the delta claims to extend and apply it: an
		// accepted delta must never fail application to that base.
		base := &Checkpoint{
			N: d.Head.N, Rank: d.Head.Rank, Shards: d.Head.Shards, K: d.Head.K,
			Seed: d.Head.Seed, Tau: d.Head.Tau, Eta: d.Head.Eta, Lambda: d.Head.Lambda,
			Loss: d.Head.Loss, Metric: d.Head.Metric,
			Vers: append([]uint64(nil), d.PrevVers...),
			U:    make([][]float64, d.Head.Shards),
			V:    make([][]float64, d.Head.Shards),
		}
		for p := range base.U {
			rows := (base.N - p + base.Shards - 1) / base.Shards
			base.U[p] = make([]float64, rows*base.Rank)
			base.V[p] = make([]float64, rows*base.Rank)
		}
		if err := ApplyDelta(base, d); err != nil {
			t.Fatalf("accepted delta fails to apply to its own base: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteDelta(&buf, base, d.PrevVers); err != nil {
			t.Fatalf("re-encode of applied delta failed: %v", err)
		}
		d2, err := ReadDelta(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(d.Head.U, d2.Head.U) || !reflect.DeepEqual(d.Head.V, d2.Head.V) {
			t.Fatal("delta blocks drifted through apply + re-encode")
		}
	})
}
