package dmfsgd

// Tests for the incremental-durability tier: delta checkpoint chains
// (CheckpointChain), rotating WAL segments (WithWALDir), and the
// durability-path edge cases around them. The crash-recovery property
// stays the one TestCrashRecoverySequential pins: a run that
// checkpoints, crashes and resumes must be bit-identical to a run that
// never stopped.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"dmfsgd/internal/ckpt"
	"dmfsgd/internal/dataset"
)

// terminalSource hands out one batch of measurements together with
// io.EOF — the "final partial batch" shape a finite stream may emit.
type terminalSource struct {
	ms   []Measurement
	done bool
}

func (s *terminalSource) NextBatch(_ context.Context, buf []Measurement) (int, error) {
	if s.done {
		return 0, io.EOF
	}
	s.done = true
	return copy(buf, s.ms), io.EOF
}

// TestWALSourceNextBatchPreservesSourceError: when the inner source
// reports a terminal condition (io.EOF with a final batch) in the same
// call where the log write fails, NextBatch must surface BOTH — the
// old code returned only the WAL error, losing the fact that the
// stream had ended. The write fails because the segment directory is
// removed under the log, which fails for every user (permission bits
// do not stop a superuser).
func TestWALSourceNextBatchPreservesSourceError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	src := &terminalSource{ms: []Measurement{{T: 1, I: 0, J: 1, Value: 2}}}
	ws := walDir(t, src, dir, 0)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	buf := make([]Measurement, 4)
	n, err := ws.NextBatch(context.Background(), buf)
	if n != 0 {
		t.Errorf("n=%d after a failed log write, want 0 (nothing unlogged may train)", n)
	}
	if !errors.Is(err, ErrWAL) {
		t.Errorf("err=%v, want ErrWAL", err)
	}
	if !strings.Contains(err.Error(), syscall.ENOENT.Error()) {
		t.Errorf("err=%v lost the write failure's cause", err)
	}
	if !errors.Is(err, io.EOF) {
		t.Errorf("err=%v dropped the source's terminal io.EOF", err)
	}
	// The failure is sticky, and without a competing source error the
	// plain WAL error comes back alone.
	if _, err := ws.NextBatch(context.Background(), buf); !errors.Is(err, ErrWAL) || errors.Is(err, io.EOF) {
		t.Errorf("sticky err=%v, want bare ErrWAL", err)
	}
}

// TestCheckpointBarrierNonTruncatingSink: a crash between the
// checkpoint write and the segment compaction leaves a log the barrier
// never truncated. Correctness then comes from skip-by-seq replay:
// resume reads the whole uncompacted chain, skips every entry at or
// below the checkpoint's sequence, and numbering continues where the
// log left off.
func TestCheckpointBarrierNonTruncatingSink(t *testing.T) {
	ctx := context.Background()
	const n, total, seed = 50, 2400, 91
	ds := NewMeridianDataset(n, seed)
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "sess.ckpt")
	wal := filepath.Join(dir, "wal")

	ref, err := NewSession(ds, WithSeed(seed), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(ctx, total); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, ref)
	ref.Close()

	src, _ := NewMatrixSource(ds, 0, seed)
	ws := walDir(t, src, wal, 0)
	crash, err := NewSessionFromSource(ds, ws, WithSeed(seed), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := crash.Run(ctx, 800); err != nil {
		t.Fatal(err)
	}
	// SaveCheckpoint without its compaction step: the crash lands after
	// the checkpoint is durable and before the covered segments go.
	preSave := walBytes(t, wal)
	if err := ckpt.WriteFile(ckptPath, crash.checkpointState()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(walBytes(t, wal), preSave) {
		t.Fatal("writing the checkpoint alone changed the WAL")
	}
	if err := crash.Run(ctx, 900); err != nil {
		t.Fatal(err)
	}
	killSeq := ws.Seq()
	crash.Close()

	resume := func() (*Session, *WALSource) {
		t.Helper()
		ckptF, err := os.Open(ckptPath)
		if err != nil {
			t.Fatal(err)
		}
		defer ckptF.Close()
		src, _ := NewMatrixSource(ds, 0, seed)
		ws := walDir(t, src, wal, 0)
		sess, err := ResumeSessionFromSource(ds, ws, ckptF)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		return sess, ws
	}
	resumed, ws2 := resume()
	if resumed.Steps() != 800+900 {
		t.Errorf("resumed at %d steps, want %d", resumed.Steps(), 800+900)
	}
	if ws2.Seq() != killSeq {
		t.Errorf("resumed log sequence %d, want %d (numbering must continue)", ws2.Seq(), killSeq)
	}
	if err := resumed.Run(ctx, total-resumed.Steps()); err != nil {
		t.Fatal(err)
	}
	got := captureState(t, resumed)
	resumed.Close()
	assertSameState(t, "uncompacted cycle", got, want)
	// The entries appended after the restart continue the numbering: a
	// second resume from the same checkpoint replays the whole chain —
	// every commit must land on its log position — to the final state.
	again, _ := resume()
	got2 := captureState(t, again)
	again.Close()
	assertSameState(t, "second uncompacted resume", got2, want)
}

// TestCrashRecoveryDeltaChainSegments is the crash-recovery property
// test for the incremental tier: a run that saves through a
// CheckpointChain (full base + delta records) into a rotating dir-mode
// WAL, crashes inside the delta chain — after at least one delta save
// and at least one segment rotation — and resumes from the chain plus
// the segment files must be bit-identical to a run that never stopped,
// across seeds, shard counts and kill points.
func TestCrashRecoveryDeltaChainSegments(t *testing.T) {
	ctx := context.Background()
	const n, total, chunk = 60, 3000, 512
	for _, tc := range []struct {
		seed       int64
		shards     int
		killChunks int // chunks trained before the crash
		ckptEvery  int // chain save every this many chunks
		baseEvery  int // chain rolls a fresh base after this many deltas
	}{
		{seed: 1, shards: 4, killChunks: 5, ckptEvery: 1, baseEvery: 8},
		{seed: 2, shards: 4, killChunks: 5, ckptEvery: 2, baseEvery: 1},
		// killChunks=5 with baseEvery=2 kills one save after a base
		// roll: the chain is base + d001 with pruned stale deltas.
		{seed: 3, shards: 7, killChunks: 5, ckptEvery: 1, baseEvery: 2},
		{seed: 4, shards: 1, killChunks: 3, ckptEvery: 1, baseEvery: 8},
	} {
		ds := NewMeridianDataset(n, tc.seed)
		opts := []Option{WithSeed(tc.seed), WithShards(tc.shards)}

		ref, err := NewSession(ds, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(ctx, total); err != nil {
			t.Fatal(err)
		}
		want := captureState(t, ref)
		ref.Close()

		dir := t.TempDir()
		walDir := filepath.Join(dir, "wal")
		ckptPath := filepath.Join(dir, "sess.ckpt")
		// A tiny segment limit forces rotation every few batches.
		const segBytes = 8 << 10
		src, err := NewMatrixSource(ds, 0, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := WithWALDir(src, walDir, segBytes)
		if err != nil {
			t.Fatal(err)
		}
		cc := NewCheckpointChain(ckptPath, tc.baseEvery)
		crash, err := NewSessionFromSource(ds, ws, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < tc.killChunks; c++ {
			if err := crash.Run(ctx, chunk); err != nil {
				t.Fatal(err)
			}
			if (c+1)%tc.ckptEvery == 0 {
				if err := cc.Save(crash); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The kill point must sit inside a delta chain after at least
		// one rotation, or the tuple is not testing the new tier.
		if _, err := os.Stat(ckpt.DeltaPath(ckptPath, 1)); err != nil {
			t.Fatalf("seed=%d: no delta record on disk at the kill point: %v", tc.seed, err)
		}
		if ws.index < 2 {
			t.Fatalf("seed=%d: only %d segment(s) ever opened; rotation never happened", tc.seed, ws.index)
		}
		killedAt := crash.Steps()
		crash.Close()

		// Restart from the files alone: chain + segment directory.
		src2, err := NewMatrixSource(ds, 0, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		ws2, err := WithWALDir(src2, walDir, segBytes)
		if err != nil {
			t.Fatal(err)
		}
		cc2 := NewCheckpointChain(ckptPath, tc.baseEvery)
		resumed, err := cc2.Resume(ds, ws2, opts...)
		if err != nil {
			t.Fatalf("resume (seed=%d shards=%d): %v", tc.seed, tc.shards, err)
		}
		if resumed.Steps() != killedAt {
			t.Errorf("seed=%d shards=%d: replay reached %d steps, crash stopped at %d",
				tc.seed, tc.shards, resumed.Steps(), killedAt)
		}
		// The resumed writer continues the chain: its next save extends
		// the on-disk prefix instead of rewriting the base.
		if err := resumed.Run(ctx, (total-killedAt)/2); err != nil {
			t.Fatal(err)
		}
		if err := cc2.Save(resumed); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Run(ctx, total-resumed.Steps()); err != nil {
			t.Fatal(err)
		}
		got := captureState(t, resumed)
		resumed.Close()
		assertSameState(t, "chain resume", got, want)

		// Second restart: the post-resume save plus the newest segments
		// must themselves resolve.
		src3, err := NewMatrixSource(ds, 0, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		ws3, err := WithWALDir(src3, walDir, segBytes)
		if err != nil {
			t.Fatal(err)
		}
		again, err := NewCheckpointChain(ckptPath, tc.baseEvery).Resume(ds, ws3, opts...)
		if err != nil {
			t.Fatalf("second resume (seed=%d): %v", tc.seed, err)
		}
		got2 := captureState(t, again)
		again.Close()
		assertSameState(t, "second chain resume", got2, want)
	}
}

// TestSegmentedColdReplayAndTornHeader: a dir-mode run killed before
// its first checkpoint resumes from the segment chain alone (cold
// replay from sequence zero), and extra torn segments at the chain's
// tail — a zero-length file from a crash between create and header
// write, then a partial header line — are dropped without poisoning
// the resume.
func TestSegmentedColdReplayAndTornHeader(t *testing.T) {
	ctx := context.Background()
	const n, total, seed = 50, 2000, 17
	ds := NewMeridianDataset(n, seed)
	opts := []Option{WithSeed(seed), WithShards(4)}

	ref, err := NewSession(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(ctx, total); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, ref)
	ref.Close()

	walDir := t.TempDir()
	const segBytes = 4 << 10
	src, _ := NewMatrixSource(ds, 0, seed)
	ws, err := WithWALDir(src, walDir, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	crash, err := NewSessionFromSource(ds, ws, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// Rotation happens at batch boundaries, so train in several Run
	// calls (one WAL batch each) to force the active segment past the
	// limit repeatedly.
	for i := 0; i < 3; i++ {
		if err := crash.Run(ctx, 400); err != nil {
			t.Fatal(err)
		}
	}
	lastIdx := ws.index
	if lastIdx < 2 {
		t.Fatalf("only %d segment(s); rotation never happened", lastIdx)
	}
	crash.Close()

	// Simulate the crash tearing the chain's tail: an empty next
	// segment and a partial header beyond it.
	empty := filepath.Join(walDir, dataset.WALSegmentName(lastIdx+1))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(walDir, dataset.WALSegmentName(lastIdx+2))
	if err := os.WriteFile(torn, []byte(`{"wal":1,`), 0o644); err != nil {
		t.Fatal(err)
	}

	src2, _ := NewMatrixSource(ds, 0, seed)
	ws2, err := WithWALDir(src2, walDir, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeSessionFromSource(ds, ws2, nil, opts...)
	if err != nil {
		t.Fatalf("cold segmented resume: %v", err)
	}
	if resumed.Steps() != 1200 {
		t.Errorf("replay reached %d steps, want 1200", resumed.Steps())
	}
	for _, p := range []string{empty, torn} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("torn segment %s survived resume alignment (err=%v)", filepath.Base(p), err)
		}
	}
	if err := resumed.Run(ctx, total-resumed.Steps()); err != nil {
		t.Fatal(err)
	}
	got := captureState(t, resumed)
	resumed.Close()
	assertSameState(t, "cold segmented resume", got, want)
}
