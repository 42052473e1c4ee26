package dmfsgd

import (
	"bytes"
	"context"
	"errors"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dmfsgd/internal/ckpt"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/replica"
)

// walDir wraps src in a rotating WAL over dir, failing the test on error.
func walDir(t *testing.T, src Source, dir string, segmentBytes int64) *WALSource {
	t.Helper()
	ws, err := WithWALDir(src, dir, segmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// cloneDir copies a WAL directory, so one crash image can be resumed
// several times: resume aligns (truncates) the segments it replays.
func cloneDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// walSegments returns the paths of dir's WAL segments in index order.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	idxs, err := dataset.ListWALSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(idxs))
	for i, idx := range idxs {
		paths[i] = filepath.Join(dir, dataset.WALSegmentName(idx))
	}
	return paths
}

// walBytes concatenates dir's segments: the log as one stream.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	var all []byte
	for _, p := range walSegments(t, dir) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	return all
}

// sessionState captures everything the bit-identity contract covers.
type sessionState struct {
	u, v  []float64
	vers  []uint64
	steps int
	auc   float64
}

func captureState(t *testing.T, s *Session) sessionState {
	t.Helper()
	snap := s.Snapshot()
	u, v := snap.Flat()
	auc, err := s.AUC(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return sessionState{u: u, v: v, vers: snap.Versions(), steps: s.Steps(), auc: auc}
}

func assertSameState(t *testing.T, label string, got, want sessionState) {
	t.Helper()
	if got.steps != want.steps {
		t.Errorf("%s: steps %d, want %d", label, got.steps, want.steps)
	}
	if len(got.vers) != len(want.vers) {
		t.Fatalf("%s: version vector %d shards, want %d", label, len(got.vers), len(want.vers))
	}
	for p := range want.vers {
		if got.vers[p] != want.vers[p] {
			t.Errorf("%s: shard %d version %d, want %d", label, p, got.vers[p], want.vers[p])
		}
	}
	for k := range want.u {
		if got.u[k] != want.u[k] || got.v[k] != want.v[k] {
			t.Fatalf("%s: coordinate %d drifted: %v/%v vs %v/%v", label, k, got.u[k], got.v[k], want.u[k], want.v[k])
		}
	}
	if got.auc != want.auc {
		t.Errorf("%s: AUC %v, want bit-identical %v", label, got.auc, want.auc)
	}
}

// TestCrashRecoverySequential is the crash-recovery property test for
// sequential training: for several (seed, shard-count, kill-point)
// tuples, a run that checkpoints periodically, "crashes" at a batch
// boundary, resumes from checkpoint + WAL tail and finishes its budget
// must be bit-identical — factors, version vector, steps, AUC — to a
// run that never stopped. Session.Checkpoint never compacts the WAL,
// so every resume also exercises idempotent replay at the barrier: the
// entries already folded into the checkpoint are skipped by sequence
// number.
func TestCrashRecoverySequential(t *testing.T) {
	ctx := context.Background()
	const n, total, chunk = 60, 3000, 512
	for _, tc := range []struct {
		seed       int64
		shards     int
		killChunks int // chunks trained before the crash
		ckptEvery  int // checkpoint every this many chunks
	}{
		{seed: 1, shards: 1, killChunks: 3, ckptEvery: 2},
		{seed: 1, shards: 4, killChunks: 3, ckptEvery: 2},
		{seed: 2, shards: 4, killChunks: 5, ckptEvery: 3},
		{seed: 3, shards: 7, killChunks: 1, ckptEvery: 1},
	} {
		ds := NewMeridianDataset(n, tc.seed)
		opts := []Option{WithSeed(tc.seed), WithShards(tc.shards)}

		// The reference: train the budget in one uninterrupted call.
		ref, err := NewSession(ds, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(ctx, total); err != nil {
			t.Fatal(err)
		}
		want := captureState(t, ref)
		ref.Close()

		// The crashing run: WAL everything, checkpoint periodically,
		// stop mid-budget ("kill" = drop the session on the floor).
		wal := t.TempDir()
		var ckptBytes []byte
		src, err := NewMatrixSource(ds, 0, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		crash, err := NewSessionFromSource(ds, walDir(t, src, wal, 0), opts...)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < tc.killChunks; c++ {
			if err := crash.Run(ctx, chunk); err != nil {
				t.Fatal(err)
			}
			if (c+1)%tc.ckptEvery == 0 {
				var buf bytes.Buffer
				if err := crash.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				ckptBytes = buf.Bytes()
			}
		}
		if ckptBytes == nil {
			t.Fatal("test tuple never checkpointed")
		}
		killedAt := crash.Steps()
		crash.Close()

		// Restart: fresh chain of the same shape, restore, replay, finish.
		src2, err := NewMatrixSource(ds, 0, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeSessionFromSource(ds, walDir(t, src2, wal, 0), bytes.NewReader(ckptBytes))
		if err != nil {
			t.Fatalf("resume (seed=%d shards=%d): %v", tc.seed, tc.shards, err)
		}
		if resumed.Steps() != killedAt {
			t.Errorf("seed=%d shards=%d: replay reached %d steps, crash stopped at %d",
				tc.seed, tc.shards, resumed.Steps(), killedAt)
		}
		if err := resumed.Run(ctx, total-resumed.Steps()); err != nil {
			t.Fatal(err)
		}
		got := captureState(t, resumed)
		resumed.Close()
		assertSameState(t, "resumed", got, want)
	}
}

// TestCrashRecoveryTornTail cuts bytes off the end of the WAL's active
// segment (a crash mid-write tears the final line): replay must trust
// exactly the committed prefix and the resumed source must re-emit the
// rest, still bit-identical to the uninterrupted run.
func TestCrashRecoveryTornTail(t *testing.T) {
	ctx := context.Background()
	const n, total, seed = 50, 2000, 11
	ds := NewMeridianDataset(n, seed)

	ref, err := NewSession(ds, WithSeed(seed), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(ctx, total); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, ref)
	ref.Close()

	// A small segment limit rotates the log after the first batch, so
	// the cuts land in the second (active) segment of a chain.
	const segBytes = 16 << 10
	wal := t.TempDir()
	src, _ := NewMatrixSource(ds, 0, seed)
	crash, err := NewSessionFromSource(ds, walDir(t, src, wal, segBytes), WithSeed(seed), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := crash.Run(ctx, 900); err != nil {
		t.Fatal(err)
	}
	var ckptBuf bytes.Buffer
	if err := crash.Checkpoint(&ckptBuf); err != nil {
		t.Fatal(err)
	}
	if err := crash.Run(ctx, 700); err != nil {
		t.Fatal(err)
	}
	crash.Close()

	if segs := walSegments(t, wal); len(segs) < 2 {
		t.Fatalf("%d segment(s) on disk; the log never rotated", len(segs))
	}
	for _, cut := range []int{1, 7, 300} {
		torn := cloneDir(t, wal)
		segs := walSegments(t, torn)
		active := segs[len(segs)-1]
		fi, err := os.Stat(active)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(active, fi.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}
		src2, _ := NewMatrixSource(ds, 0, seed)
		resumed, err := ResumeSessionFromSource(ds, walDir(t, src2, torn, segBytes), bytes.NewReader(ckptBuf.Bytes()))
		if err != nil {
			t.Fatalf("cut %d: resume: %v", cut, err)
		}
		if err := resumed.Run(ctx, total-resumed.Steps()); err != nil {
			t.Fatal(err)
		}
		got := captureState(t, resumed)
		resumed.Close()
		assertSameState(t, "torn tail", got, want)
	}
}

// TestCrashRecoveryDecoratedChain runs the crash through a scenario
// stack (noise and drop hold private RNG streams; churn is rebuilt from
// queried stream times): the checkpoint's source cursors must restore
// every layer.
func TestCrashRecoveryDecoratedChain(t *testing.T) {
	ctx := context.Background()
	const n, total, seed = 50, 2200, 21
	ds := NewMeridianDataset(n, seed)
	mkChain := func(dir string) Source {
		src, err := NewMatrixSource(ds, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		var s Source = src
		s = WithChurn(s, ChurnConfig{Start: 0.5, MeanUp: 5, MeanDown: 1, Fraction: 0.3, Seed: 7})
		s = WithNoise(s, 0.05, 13)
		s = WithDrop(s, 0.1, 17)
		return walDir(t, s, dir, 0)
	}

	ref, err := NewSessionFromSource(ds, mkChain(t.TempDir()), WithSeed(seed), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(ctx, total); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, ref)
	ref.Close()

	wal := t.TempDir()
	crash, err := NewSessionFromSource(ds, mkChain(wal), WithSeed(seed), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := crash.Run(ctx, 800); err != nil {
		t.Fatal(err)
	}
	var ckptBuf bytes.Buffer
	if err := crash.Checkpoint(&ckptBuf); err != nil {
		t.Fatal(err)
	}
	if err := crash.Run(ctx, 600); err != nil {
		t.Fatal(err)
	}
	crash.Close()

	resumed, err := ResumeSessionFromSource(ds, mkChain(wal), bytes.NewReader(ckptBuf.Bytes()))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := resumed.Run(ctx, total-resumed.Steps()); err != nil {
		t.Fatal(err)
	}
	got := captureState(t, resumed)
	resumed.Close()
	assertSameState(t, "decorated chain", got, want)
}

// TestCrashRecoveryEpochReplay crashes epoch-mode trace training: the
// WAL's commit barriers record epoch groups (mode "b"), and replay must
// re-apply them through the sharded batch path with the same grouping.
func TestCrashRecoveryEpochReplay(t *testing.T) {
	ctx := context.Background()
	const n, seed, probes = 40, 31, 4
	const epochs = 8
	ds := NewHarvardDataset(n, 60000, seed)

	for _, shards := range []int{1, 5} {
		opts := []Option{WithSeed(seed), WithShards(shards)}
		ref, err := NewSession(ds, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.RunEpochs(ctx, epochs, probes); err != nil {
			t.Fatal(err)
		}
		want := captureState(t, ref)
		ref.Close()

		wal := t.TempDir()
		ts, err := NewTraceSource(ds)
		if err != nil {
			t.Fatal(err)
		}
		crash, err := NewSessionFromSource(ds, walDir(t, ts, wal, 0), opts...)
		if err != nil {
			t.Fatal(err)
		}
		var ckptBytes []byte
		const killEpoch = 5
		for ep := 0; ep < killEpoch; ep++ {
			if _, err := crash.RunEpochs(ctx, 1, probes); err != nil {
				t.Fatal(err)
			}
			if ep == 2 {
				var buf bytes.Buffer
				if err := crash.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				ckptBytes = buf.Bytes()
			}
		}
		crash.Close()

		ts2, err := NewTraceSource(ds)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeSessionFromSource(ds, walDir(t, ts2, wal, 0), bytes.NewReader(ckptBytes))
		if err != nil {
			t.Fatalf("shards=%d: resume: %v", shards, err)
		}
		if _, err := resumed.RunEpochs(ctx, epochs-killEpoch, probes); err != nil {
			t.Fatal(err)
		}
		got := captureState(t, resumed)
		resumed.Close()
		assertSameState(t, "epoch replay", got, want)
	}
}

// TestCrashRecoveryNativeEpochs resumes parallel epoch training on a
// static dataset: no measurements flow (the engine samples internally),
// so the checkpoint alone — factors plus per-node RNG stream positions —
// must make the continuation bit-identical.
func TestCrashRecoveryNativeEpochs(t *testing.T) {
	ctx := context.Background()
	const n, seed, probes, epochs = 50, 41, 5, 10
	ds := NewMeridianDataset(n, seed)
	for _, shards := range []int{1, 4} {
		opts := []Option{WithSeed(seed), WithShards(shards)}
		ref, err := NewSession(ds, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.RunEpochs(ctx, epochs, probes); err != nil {
			t.Fatal(err)
		}
		want := captureState(t, ref)
		ref.Close()

		half, err := NewSession(ds, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := half.RunEpochs(ctx, 6, probes); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := half.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		half.Close()

		resumed, err := ResumeSession(ds, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("shards=%d: resume: %v", shards, err)
		}
		if _, err := resumed.RunEpochs(ctx, epochs-6, probes); err != nil {
			t.Fatal(err)
		}
		got := captureState(t, resumed)
		resumed.Close()
		assertSameState(t, "native epochs", got, want)
	}
}

// TestSaveCheckpointFileAndWALTruncation exercises the file-based
// durability cycle dmfserve uses: a WAL directory, SaveCheckpoint
// deleting its segments at the barrier, a crash, and a resume that
// replays the tail from the directory and appends in place.
func TestSaveCheckpointFileAndWALTruncation(t *testing.T) {
	ctx := context.Background()
	const n, total, seed = 50, 2400, 51
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "sess.ckpt")
	wal := filepath.Join(dir, "sess.wal")
	ds := NewMeridianDataset(n, seed)

	ref, err := NewSession(ds, WithSeed(seed), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(ctx, total); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, ref)
	ref.Close()

	src, _ := NewMatrixSource(ds, 0, seed)
	crash, err := NewSessionFromSource(ds, walDir(t, src, wal, 0), WithSeed(seed), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := crash.Run(ctx, 800); err != nil {
		t.Fatal(err)
	}
	preTrunc := len(walBytes(t, wal))
	if err := SaveCheckpoint(crash, ckptPath); err != nil {
		t.Fatal(err)
	}
	if segs := walSegments(t, wal); len(segs) != 0 || preTrunc == 0 {
		t.Fatalf("checkpoint barrier should delete the WAL segments: %d bytes -> %d segment(s)", preTrunc, len(segs))
	}
	if err := crash.Run(ctx, 900); err != nil {
		t.Fatal(err)
	}
	crash.Close() // "crash": the post-checkpoint tail lives only in the WAL

	// Restart from the files alone.
	resume := func() *Session {
		t.Helper()
		ckptF, err := os.Open(ckptPath)
		if err != nil {
			t.Fatal(err)
		}
		defer ckptF.Close()
		src, _ := NewMatrixSource(ds, 0, seed)
		sess, err := ResumeSessionFromSource(ds, walDir(t, src, wal, 0), ckptF)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		return sess
	}
	resumed := resume()
	if resumed.Steps() != 800+900 {
		t.Errorf("resumed at %d steps, want %d", resumed.Steps(), 800+900)
	}
	if err := resumed.Run(ctx, total-resumed.Steps()); err != nil {
		t.Fatal(err)
	}
	got := captureState(t, resumed)
	resumed.Close()
	assertSameState(t, "file cycle", got, want)

	// The appended entries must themselves replay: one more restart.
	again := resume()
	got2 := captureState(t, again)
	again.Close()
	assertSameState(t, "second resume", got2, want)
}

// TestResumeRejectsMismatches: contradicting options, a wrong dataset
// and a wrong chain shape all fail with ErrCheckpoint, not silently
// divergent training.
func TestResumeRejectsMismatches(t *testing.T) {
	ctx := context.Background()
	const n, seed = 40, 61
	ds := NewMeridianDataset(n, seed)
	sess, err := NewSession(ds, WithSeed(seed), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(ctx, 500); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	if _, err := ResumeSession(ds, bytes.NewReader(buf.Bytes()), WithSeed(seed+1)); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("conflicting seed: %v, want ErrCheckpoint", err)
	}
	if _, err := ResumeSession(ds, bytes.NewReader(buf.Bytes()), WithShards(5)); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("conflicting shards: %v, want ErrCheckpoint", err)
	}
	if _, err := ResumeSession(ds, bytes.NewReader(buf.Bytes()), WithRank(4)); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("conflicting rank: %v, want ErrCheckpoint", err)
	}
	other := NewMeridianDataset(n+5, seed)
	if _, err := ResumeSession(other, bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("wrong dataset: %v, want ErrCheckpoint", err)
	}
	if _, err := ResumeSession(ds, bytes.NewReader([]byte("garbage"))); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("garbage checkpoint: %v, want ErrCheckpoint", err)
	}
	// Matching options are fine.
	ok, err := ResumeSession(ds, bytes.NewReader(buf.Bytes()), WithSeed(seed), WithShards(2))
	if err != nil {
		t.Errorf("matching options rejected: %v", err)
	} else {
		ok.Close()
	}
	// A chain with a different cursor shape is rejected.
	src, _ := NewMatrixSource(ds, 0, seed)
	if _, err := ResumeSessionFromSource(ds, WithDrop(src, 0.1, 1), bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("mismatched chain shape: %v, want ErrCheckpoint", err)
	}
}

// TestLiveCheckpointWarmResume: a live session's checkpoint records no
// stream positions (Draws == 0); ResumeSession must restore it as a
// warm start — factors and steps carried over — rather than failing on
// the missing positions. The swarm keeps training after Checkpoint
// returns, so the expected state is the checkpoint's own record, not a
// later snapshot.
func TestLiveCheckpointWarmResume(t *testing.T) {
	ds := NewMeridianDataset(30, 71)
	live, err := NewSession(ds, WithSeed(71), WithK(8), WithLive())
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Run(context.Background(), 500); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := live.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	live.Close()
	rec, err := ckpt.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := ResumeSession(ds, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("warm resume: %v", err)
	}
	defer resumed.Close()
	if uint64(resumed.Steps()) != rec.Steps {
		t.Errorf("resumed steps %d, want %d", resumed.Steps(), rec.Steps)
	}
	snap := resumed.Snapshot()
	for p := range rec.U {
		for k := range rec.U[p] {
			if snap.bu[p][k] != rec.U[p][k] || snap.bv[p][k] != rec.V[p][k] {
				t.Fatalf("warm factors drifted at shard %d value %d", p, k)
			}
		}
	}
	// And a warm session keeps training.
	if err := resumed.Run(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
}

// cancelAfterSource delivers a given number of batches normally and
// then returns one final batch together with context.Canceled — a
// deterministic interruption landing mid-epoch, with measurements
// already logged to the WAL but never trained.
type cancelAfterSource struct {
	src     Source
	batches int
}

func (c *cancelAfterSource) Unwrap() Source { return c.src }

func (c *cancelAfterSource) NextBatch(ctx context.Context, buf []Measurement) (int, error) {
	n, err := c.src.NextBatch(ctx, buf)
	if c.batches--; c.batches == 0 && err == nil {
		err = context.Canceled
	}
	return n, err
}

// TestCrashRecoveryAfterCancelledEpoch: a cancelled epoch collection
// logs measurements it never trains on. The session must mark them
// skipped in the WAL so that a later crash still resumes to the exact
// state the interrupted-and-continued run reached.
func TestCrashRecoveryAfterCancelledEpoch(t *testing.T) {
	ctx := context.Background()
	const n, seed, probes = 40, 81, 4
	ds := NewHarvardDataset(n, 60000, seed)

	wal := t.TempDir()
	ts, err := NewTraceSource(ds)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := &cancelAfterSource{src: ts, batches: -1}
	run, err := NewSessionFromSource(ds, walDir(t, wrapped, wal, 0), WithSeed(seed), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.RunEpochs(ctx, 2, probes); err != nil {
		t.Fatal(err)
	}
	var ckptBuf bytes.Buffer
	if err := run.Checkpoint(&ckptBuf); err != nil {
		t.Fatal(err)
	}
	// The interrupted epoch: two batches into the next collection (not
	// enough usable measurements to complete an epoch group) the source
	// aborts, so the gathered measurements are discarded — and must be
	// marked skipped in the WAL.
	wrapped.batches = 2
	if _, err := run.RunEpochs(ctx, 3, probes); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected cancellation, got %v", err)
	}
	if !bytes.Contains(walBytes(t, wal), []byte(`"mode":"x"`)) {
		t.Fatal("interrupted collection wrote no skip barrier")
	}
	// The run continues past the interruption and then "crashes".
	if _, err := run.RunEpochs(ctx, 2, probes); err != nil {
		t.Fatal(err)
	}
	wantSteps := run.Steps()
	wantU, wantV := run.Snapshot().Flat()
	run.Close()

	ts2, err := NewTraceSource(ds)
	if err != nil {
		t.Fatal(err)
	}
	inert := &cancelAfterSource{src: ts2, batches: -1}
	resumed, err := ResumeSessionFromSource(ds, walDir(t, inert, wal, 0), bytes.NewReader(ckptBuf.Bytes()))
	if err != nil {
		t.Fatalf("resume across a skip barrier: %v", err)
	}
	defer resumed.Close()
	if resumed.Steps() != wantSteps {
		t.Errorf("replay reached %d steps, crashed run had %d", resumed.Steps(), wantSteps)
	}
	gotU, gotV := resumed.Snapshot().Flat()
	for k := range wantU {
		if gotU[k] != wantU[k] || gotV[k] != wantV[k] {
			t.Fatalf("factors drifted at %d after skip-barrier replay", k)
		}
	}
}

// hostileSource injects unrepresentable records (self-pairs, NaNs,
// negative ids) between the inner source's measurements.
type hostileSource struct {
	src Source
}

func (h *hostileSource) Unwrap() Source { return h.src }

func (h *hostileSource) NextBatch(ctx context.Context, buf []Measurement) (int, error) {
	if len(buf) > 3 {
		n, err := h.src.NextBatch(ctx, buf[:len(buf)-3])
		buf[n] = Measurement{T: 1, I: 2, J: 2, Value: 5}            // self-pair
		buf[n+1] = Measurement{T: math.NaN(), I: 0, J: 1, Value: 5} // NaN time
		buf[n+2] = Measurement{T: 1, I: -4, J: 1, Value: 5}         // negative id
		return n + 3, err
	}
	return h.src.NextBatch(ctx, buf)
}

// TestWALSurvivesHostileRecords: records the WAL line format cannot
// represent are never applied (the session filters them) — they must
// also never be logged, or one bad record from a custom source would
// make every later committed entry unparseable on resume.
func TestWALSurvivesHostileRecords(t *testing.T) {
	ctx := context.Background()
	const n, seed = 40, 91
	ds := NewMeridianDataset(n, seed)
	mkChain := func(dir string) Source {
		src, err := NewMatrixSource(ds, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		return walDir(t, &hostileSource{src: src}, dir, 0)
	}

	wal := t.TempDir()
	run, err := NewSessionFromSource(ds, mkChain(wal), WithSeed(seed), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Run(ctx, 600); err != nil {
		t.Fatal(err)
	}
	var ckptBuf bytes.Buffer
	if err := run.Checkpoint(&ckptBuf); err != nil {
		t.Fatal(err)
	}
	if err := run.Run(ctx, 400); err != nil {
		t.Fatal(err)
	}
	wantSteps := run.Steps()
	wantU, wantV := run.Snapshot().Flat()
	run.Close()

	resumed, err := ResumeSessionFromSource(ds, mkChain(wal), bytes.NewReader(ckptBuf.Bytes()))
	if err != nil {
		t.Fatalf("resume after hostile records: %v", err)
	}
	defer resumed.Close()
	if resumed.Steps() != wantSteps {
		t.Errorf("replay reached %d steps, run had %d", resumed.Steps(), wantSteps)
	}
	gotU, gotV := resumed.Snapshot().Flat()
	for k := range wantU {
		if gotU[k] != wantU[k] || gotV[k] != wantV[k] {
			t.Fatalf("factors drifted at %d", k)
		}
	}
}

// TestCanonicalResumeOfWALTrainedState: the WAL decorator is not a
// cursor layer, so a checkpoint written by a WAL-attached chain must
// resume through plain ResumeSession (canonical source, no WAL) at the
// checkpoint's own state — and the continuation must stay bit-identical
// to an uninterrupted run.
func TestCanonicalResumeOfWALTrainedState(t *testing.T) {
	ctx := context.Background()
	const n, total, seed = 50, 2000, 111
	ds := NewMeridianDataset(n, seed)

	ref, err := NewSession(ds, WithSeed(seed), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(ctx, total); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, ref)
	ref.Close()

	src, _ := NewMatrixSource(ds, 0, seed)
	crash, err := NewSessionFromSource(ds, walDir(t, src, t.TempDir(), 0), WithSeed(seed), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := crash.Run(ctx, 700); err != nil {
		t.Fatal(err)
	}
	var ckptBuf bytes.Buffer
	if err := crash.Checkpoint(&ckptBuf); err != nil {
		t.Fatal(err)
	}
	if err := crash.Run(ctx, 500); err != nil {
		t.Fatal(err)
	}
	crash.Close()

	resumed, err := ResumeSession(ds, bytes.NewReader(ckptBuf.Bytes()))
	if err != nil {
		t.Fatalf("canonical resume of WAL-trained checkpoint: %v", err)
	}
	if resumed.Steps() != 700 {
		t.Errorf("resumed at %d steps, want the checkpoint's 700", resumed.Steps())
	}
	if err := resumed.Run(ctx, total-resumed.Steps()); err != nil {
		t.Fatal(err)
	}
	got := captureState(t, resumed)
	resumed.Close()
	assertSameState(t, "canonical resume", got, want)
}

// TestColdWALReplay: a process killed before its first checkpoint
// leaves only the WAL; resuming with a nil checkpoint must rebuild the
// state from sequence zero, bit-identically.
func TestColdWALReplay(t *testing.T) {
	ctx := context.Background()
	const n, seed = 50, 101
	ds := NewMeridianDataset(n, seed)

	wal := t.TempDir()
	src, _ := NewMatrixSource(ds, 0, seed)
	run, err := NewSessionFromSource(ds, walDir(t, src, wal, 0), WithSeed(seed), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Run(ctx, 1500); err != nil {
		t.Fatal(err)
	}
	wantSteps := run.Steps()
	wantU, wantV := run.Snapshot().Flat()
	run.Close() // killed before any checkpoint existed

	src2, _ := NewMatrixSource(ds, 0, seed)
	resumed, err := ResumeSessionFromSource(ds, walDir(t, src2, cloneDir(t, wal), 0),
		nil, WithSeed(seed), WithShards(3))
	if err != nil {
		t.Fatalf("cold replay: %v", err)
	}
	defer resumed.Close()
	if resumed.Steps() != wantSteps {
		t.Errorf("cold replay reached %d steps, run had %d", resumed.Steps(), wantSteps)
	}
	gotU, gotV := resumed.Snapshot().Flat()
	for k := range wantU {
		if gotU[k] != wantU[k] || gotV[k] != wantV[k] {
			t.Fatalf("factors drifted at %d", k)
		}
	}

	// A log from a different configuration must be refused, not
	// silently diverged from.
	src3, _ := NewMatrixSource(ds, 0, seed)
	if _, err := ResumeSessionFromSource(ds, walDir(t, src3, cloneDir(t, wal), 0),
		nil, WithSeed(seed+1), WithShards(3)); !errors.Is(err, ErrWAL) {
		t.Errorf("cold replay with wrong seed: %v, want ErrWAL", err)
	}
	// Nothing to resume from at all is a config error.
	if _, err := ResumeSession(ds, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("nil checkpoint and WAL: %v, want ErrInvalidConfig", err)
	}
}

// TestNativeEpochsRejectWAL: native epoch training samples internally —
// nothing reaches the log — so a WAL-attached session must refuse it
// rather than let the step counter outrun what the WAL can replay.
func TestNativeEpochsRejectWAL(t *testing.T) {
	ds := NewMeridianDataset(30, 1)
	src, _ := NewMatrixSource(ds, 8, 1)
	sess, err := NewSessionFromSource(ds, walDir(t, src, t.TempDir(), 0), WithSeed(1), WithK(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.RunEpochs(context.Background(), 2, 4); !errors.Is(err, ErrWAL) {
		t.Errorf("native epochs on a WAL session: %v, want ErrWAL", err)
	}
	// Run still works and logs.
	if err := sess.Run(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
}

// TestWALMustBeOutermost: a buried WAL decorator records a stream the
// session does not consume; the session refuses it.
func TestWALMustBeOutermost(t *testing.T) {
	ds := NewMeridianDataset(30, 1)
	src, _ := NewMatrixSource(ds, 0, 1)
	buried := WithDrop(walDir(t, src, t.TempDir(), 0), 0.1, 2)
	if _, err := NewSessionFromSource(ds, buried); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("buried WAL accepted: %v", err)
	}
}

// TestSessionCheckpointGolden pins the bytes a session writes, by
// FNV-64a hash, for a Meridian n=200 seed-1 session at P ∈ {1, 3, 8}:
// after the default budget, after one more epoch, and the replica
// capture (replica.Update from the same snapshot) of that state. The
// hashes were computed when checkpoints still held flat row-major
// arrays, so they show that capturing per-shard blocks changed no byte.
func TestSessionCheckpointGolden(t *testing.T) {
	want := map[int][3]uint64{
		1: {0x364e33f8d18f963c, 0xc8fe1f565878c8e2, 0x2f713babeece6550},
		3: {0x5e21ea9b8ae20a53, 0x5e9080cdf32f227f, 0xba03da2e11dbe5ad},
		8: {0x5d3d8a63109a589d, 0x17da2d956505fc23, 0x51aad7b06d2342f1},
	}
	ctx := context.Background()
	sum := func(write func(*bytes.Buffer) error) uint64 {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		return h.Sum64()
	}
	for _, shards := range []int{1, 3, 8} {
		sess, err := NewSession(NewMeridianDataset(200, 1), WithSeed(1), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		var got [3]uint64
		if err := sess.Run(ctx, sess.DefaultBudget()); err != nil {
			t.Fatal(err)
		}
		got[0] = sum(func(b *bytes.Buffer) error { return sess.Checkpoint(b) })
		if _, err := sess.RunEpochs(ctx, 1, 1); err != nil {
			t.Fatal(err)
		}
		got[1] = sum(func(b *bytes.Buffer) error { return sess.Checkpoint(b) })
		snap := sess.Snapshot()
		u, v := snap.Flat()
		st, err := replica.Update(nil, snap.N(), snap.Dim(), snap.StoreShards(),
			replica.Meta{Steps: uint64(snap.Steps()), Tau: snap.Tau(), Metric: uint8(snap.Metric())},
			snap.Versions(), u, v)
		if err != nil {
			t.Fatal(err)
		}
		got[2] = sum(func(b *bytes.Buffer) error { return ckpt.Write(b, st.Checkpoint()) })
		sess.Close()
		if got != want[shards] {
			t.Errorf("P=%d: checkpoint hashes %#x, want %#x", shards, got, want[shards])
		}
	}
}
