package dmfsgd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"dmfsgd/internal/ckpt"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/engine"
	"dmfsgd/internal/loss"
)

// Checkpoint writes the session's full training state to w in the
// versioned binary checkpoint format: the coordinate factors as one block
// per shard with the per-shard version vector — the blocks and versions
// of Session.Snapshot, so a checkpoint taken right after a snapshot
// copies nothing more — and, on a deterministic session, the
// counters that make resumed training bit-identical to never having
// stopped (step count, master and per-node RNG stream positions, the
// measurement-WAL sequence already applied, and the source-chain
// cursors). Restore with ResumeSession / ResumeSessionFromSource.
//
// Checkpoint must not run concurrently with Run or RunEpochs on a
// deterministic session (call it between training calls — that is the
// checkpoint barrier); on a live session it may be called at any time
// and captures a per-shard-consistent snapshot (each shard's rows and
// version are read under one lock), but a live swarm's
// schedule is wall-clock driven, so a live checkpoint records no
// stream positions: ResumeSession restores it as a warm start — the
// factors and step counter carry over, training continues on a fresh
// deterministic stream, and no bit-identity is promised.
//
// Prefer SaveCheckpoint for files: it writes atomically (temp file +
// rename) and compacts the session's WAL at the new barrier.
func (s *Session) Checkpoint(w io.Writer) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	return ckpt.Write(w, s.checkpointState())
}

// SaveCheckpoint durably checkpoints sess to path — temp file in the
// same directory, fsync, atomic rename, so a crash mid-write leaves the
// previous checkpoint intact — and then compacts the session's WAL (if
// one is attached) at the barrier: the log's entries are all folded
// into the new checkpoint, so its segment files are deleted and a
// restart needs only the entries that follow. The crash-consistency
// order is checkpoint-then-compact; a crash between the two leaves
// segments whose entries are all at or below the checkpoint's sequence,
// and replay skips them (idempotent replay at the barrier).
//
// Every save rewrites the full state. Long-running sessions that save
// often should use a CheckpointChain, which writes small delta records
// for the shards that actually advanced and a full base every K saves.
func SaveCheckpoint(sess *Session, path string) error {
	if err := sess.checkOpen(); err != nil {
		return err
	}
	if err := ckpt.WriteFile(path, sess.checkpointState()); err != nil {
		return err
	}
	if sess.wal != nil {
		return sess.wal.compact()
	}
	return nil
}

// CheckpointChain is the incremental save policy over a checkpoint
// chain rooted at path: the first save writes a full base; each
// subsequent save writes a delta record carrying only the shards whose
// version-vector entry advanced since the previous save; after
// baseEvery deltas the next save rolls the chain — a fresh full base
// replaces the file at path and the stale deltas are pruned. baseEvery
// ≤ 0 degenerates to SaveCheckpoint's full-rewrite-every-time behavior.
//
// On disk a chain is path, path.d001, path.d002, …; LoadChain (and
// Resume here) folds base + deltas back into one state, ignoring any
// delta that does not extend its predecessor (a stale file from an
// earlier chain epoch, or anything after a torn/corrupt record), so a
// crash at any point between saves leaves a resumable prefix.
type CheckpointChain struct {
	cw *ckpt.ChainWriter
}

// NewCheckpointChain returns the save policy for the chain rooted at
// path, rolling a fresh base after every baseEvery delta saves.
func NewCheckpointChain(path string, baseEvery int) *CheckpointChain {
	return &CheckpointChain{cw: ckpt.NewChainWriter(path, baseEvery)}
}

// Path returns the chain's base checkpoint path.
func (cc *CheckpointChain) Path() string { return cc.cw.Path() }

// Save checkpoints sess to the chain under the base-every-K policy and
// then compacts the session's WAL at the barrier, exactly like
// SaveCheckpoint (both record kinds capture the full counter set, so a
// delta save is as strong a barrier as a base save).
func (cc *CheckpointChain) Save(sess *Session) error {
	if err := sess.checkOpen(); err != nil {
		return err
	}
	if _, err := cc.cw.Save(sess.checkpointState()); err != nil {
		return err
	}
	if sess.wal != nil {
		return sess.wal.compact()
	}
	return nil
}

// Resume rebuilds a session from the on-disk chain — base plus every
// delta that extends it — and primes the writer so the next Save
// continues that chain. src follows ResumeSessionFromSource's contract
// when non-nil (a WithWALDir outermost layer replays its segment tail);
// a nil src builds the canonical source ResumeSession would. A missing
// base file is the cold path: the session trains from the log alone
// (ErrInvalidConfig when src carries no log either); any other
// chain-decode failure is ErrCheckpoint.
func (cc *CheckpointChain) Resume(ds *Dataset, src Source, opts ...Option) (*Session, error) {
	c, deltas, err := ckpt.LoadChain(cc.cw.Path())
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %w", ErrCheckpoint, err)
	}
	var vers []uint64
	if c != nil {
		vers = append([]uint64(nil), c.Vers...)
	}
	mk := func(set settings, k int) (Source, error) {
		if src != nil {
			return src, nil
		}
		if ds.Trace != nil {
			return NewTraceSource(ds)
		}
		return NewMatrixSource(ds, k, set.seed)
	}
	s, err := resumeDecoded(ds, c, opts, mk)
	if err != nil {
		return nil, err
	}
	if c != nil {
		cc.cw.Resume(vers, deltas)
	}
	return s, nil
}

// checkpointState assembles the capture: the blocks and version vector
// of the session's current snapshot, which the writer only reads.
func (s *Session) checkpointState() *ckpt.Checkpoint {
	snap := s.Snapshot()
	c := &ckpt.Checkpoint{
		N: snap.n, Rank: snap.rank, Shards: snap.shards,
		K:     s.k,
		Steps: uint64(s.Steps()),
		Seed:  s.set.seed,
		Tau:   s.tau, Eta: s.set.learningRate, Lambda: s.set.lambda,
		Loss: uint8(s.set.loss), Metric: uint8(s.ds.Metric),
		Incarnation: s.set.incarnation,
		Vers:        snap.vers,
		U:           snap.bu, V: snap.bv,
	}
	if s.drv != nil {
		c.Draws = s.drv.MasterDraws()
		c.NodeDraws = s.drv.Engine().NodeDraws()
		c.Cursors = collectCursors(s.src)
		if s.wal != nil {
			c.WALSeq = s.wal.Seq()
		}
	}
	return c
}

// ResumeSession rebuilds a deterministic session from a checkpoint
// instead of training from scratch — the restart-without-retrain path.
// The dataset must be the one the checkpoint was trained on (same node
// count and metric; rebuild it with the same generator parameters), and
// the session's measurement source is the canonical one NewSession
// would build (trace replay for dynamic datasets, matrix sampling
// otherwise). Configuration is adopted from the checkpoint — rank, k,
// seed, τ, hyper-parameters, shard count — and explicitly passed
// options that contradict it are rejected with ErrCheckpoint; options
// the checkpoint does not record (WithWorkers) apply as usual.
//
// The canonical source carries no WAL, so the session resumes at the
// checkpoint's own state; ResumeSessionFromSource replays a log tail.
// After a successful resume the session's factors, version vector, step
// counter and stream positions are bit-identical to the run that wrote
// the checkpoint, and continued training stays bit-identical to an
// uninterrupted run at the same seed.
func ResumeSession(ds *Dataset, ckptR io.Reader, opts ...Option) (*Session, error) {
	return resumeSession(ds, ckptR, opts, func(set settings, k int) (Source, error) {
		if ds.Trace != nil {
			return NewTraceSource(ds)
		}
		return NewMatrixSource(ds, k, set.seed)
	})
}

// ResumeSessionFromSource is ResumeSession for sessions built with
// NewSessionFromSource: src must be a freshly constructed source chain
// of the same shape as the one the checkpoint was taken with (same
// decorators in the same order — the checkpoint carries one cursor per
// cursor-bearing layer and restores each). A WithWALDir decorator is
// the exception: its sequence travels in the checkpoint and commit
// records rather than as a chain cursor, so it may be present or absent
// on either side of the restart.
//
// When src's outermost layer is a WithWALDir log, its segment chain is
// replayed: the tail past the checkpoint's sequence is applied through
// the same paths that originally trained it (sequential, or the sharded
// batch path for epoch groups), entries already covered by the
// checkpoint are skipped, and a torn tail — measurements whose
// application the crash interrupted — is discarded, to be re-emitted by
// the resumed source. The directory is then aligned to the replayed
// prefix and appends continue in it.
//
// ckptR may be nil when src carries a log: the cold-replay path for a
// process killed before its first checkpoint. The session is configured
// from opts alone (they must match the run that wrote the log — the
// replay cross-checks its step counter and fails with ErrWAL on a log
// from a different configuration) and the log's committed entries
// rebuild the state from sequence zero; an empty log yields a fresh
// session. A log whose first segment starts past zero (it was compacted
// at a checkpoint barrier) needs its checkpoint and fails the same way.
func ResumeSessionFromSource(ds *Dataset, src Source, ckptR io.Reader, opts ...Option) (*Session, error) {
	if src == nil {
		return nil, fmt.Errorf("%w: nil source", ErrInvalidConfig)
	}
	return resumeSession(ds, ckptR, opts, func(settings, int) (Source, error) { return src, nil })
}

// resumeSession is the reader-based resume path: decode the checkpoint
// (when given) and hand off to resumeDecoded.
func resumeSession(ds *Dataset, ckptR io.Reader, opts []Option, mkSrc func(set settings, k int) (Source, error)) (*Session, error) {
	var c *ckpt.Checkpoint
	if ckptR != nil {
		var err error
		if c, err = ckpt.Read(ckptR); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCheckpoint, err)
		}
	}
	return resumeDecoded(ds, c, opts, mkSrc)
}

// resumeDecoded is the shared resume path; mkSrc builds the measurement
// source once the checkpoint's configuration is merged. A source chain
// carrying a WAL replays its on-disk segment chain; "nothing to resume"
// (no checkpoint, no log) is ErrInvalidConfig.
func resumeDecoded(ds *Dataset, c *ckpt.Checkpoint, opts []Option, mkSrc func(set settings, k int) (Source, error)) (*Session, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrInvalidConfig)
	}
	set := defaultSettings()
	for _, opt := range opts {
		if err := opt(&set); err != nil {
			return nil, err
		}
	}
	if set.live {
		return nil, fmt.Errorf("%w: a live swarm's schedule is not checkpointable; resume restores deterministic sessions", ErrLiveSession)
	}
	if c != nil {
		if err := mergeCheckpoint(&set, c, ds); err != nil {
			return nil, err
		}
	}
	s, err := newDeterministicSession(ds, set)
	if err != nil {
		return nil, err
	}
	barrier := uint64(0)
	if c != nil {
		store := s.drv.Engine().Store()
		if store.Rank() != c.Rank || store.Shards() != c.Shards {
			return nil, fmt.Errorf("%w: built store rank=%d shards=%d, checkpoint has %d/%d",
				ErrCheckpoint, store.Rank(), store.Shards(), c.Rank, c.Shards)
		}
		// A deterministic session's construction always consumes master
		// draws, so Draws == 0 identifies a live-session checkpoint:
		// factors and steps are real, but there are no stream positions
		// to restore — the resume is a warm start (training continues
		// from the restored factors on a fresh deterministic stream),
		// not a bit-identical one.
		warm := c.Draws == 0
		// Restore: RNG stream position first (the freshly built driver
		// has already consumed its construction draws from the same
		// seed), then each shard's block at its version, the step
		// counter and per-node streams.
		if !warm {
			if err := s.drv.FastForwardMaster(c.Draws); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCheckpoint, err)
			}
		}
		for p := range c.Vers {
			store.SetShardBlock(p, c.U[p], c.V[p], c.Vers[p])
		}
		s.drv.Engine().SetSteps(int(c.Steps))
		if err := s.drv.Engine().RestoreNodeDraws(c.NodeDraws); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCheckpoint, err)
		}
		barrier = c.WALSeq
	}
	src, err := mkSrc(set, s.k)
	if err != nil {
		return nil, err
	}
	if err := s.attachSource(src); err != nil {
		return nil, err
	}
	if c != nil && c.Draws > 0 {
		if err := seekCursors(s.src, c.Cursors); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCheckpoint, err)
		}
	}
	if s.wal != nil {
		// Continue the log's sequence numbering where the barrier left it
		// (replay advances it further from the last commit it applies).
		s.wal.setSeq(barrier)
	}
	switch {
	case s.wal != nil:
		if err := s.replayWAL(barrier); err != nil {
			return nil, err
		}
	case c == nil:
		return nil, fmt.Errorf("%w: nothing to resume from (no checkpoint, no WAL)", ErrInvalidConfig)
	}
	return s, nil
}

// mergeCheckpoint folds the checkpoint's recorded configuration into
// set, rejecting explicit options that contradict it.
func mergeCheckpoint(set *settings, c *ckpt.Checkpoint, ds *Dataset) error {
	if c.N != ds.N() {
		return fmt.Errorf("%w: checkpoint has %d nodes, dataset has %d", ErrCheckpoint, c.N, ds.N())
	}
	if c.Metric != uint8(ds.Metric) {
		return fmt.Errorf("%w: checkpoint metric %d, dataset measures %v", ErrCheckpoint, c.Metric, ds.Metric)
	}
	if c.K == 0 {
		return fmt.Errorf("%w: checkpoint records no topology (k=0); it is not a session checkpoint", ErrCheckpoint)
	}
	if c.Loss > uint8(loss.Logistic) {
		return fmt.Errorf("%w: unknown loss id %d", ErrCheckpoint, c.Loss)
	}
	conflict := func(name string, explicit bool, got, want any) error {
		if explicit && got != want {
			return fmt.Errorf("%w: option %s=%v contradicts the checkpoint's %v", ErrCheckpoint, name, got, want)
		}
		return nil
	}
	for _, chk := range []error{
		conflict("WithRank", set.rankSet, set.rank, c.Rank),
		conflict("WithK", set.kSet, set.k, c.K),
		conflict("WithShards", set.shardsSet, set.shards, c.Shards),
		conflict("WithSeed", set.seedSet, set.seed, c.Seed),
		conflict("WithTau", set.tauSet, set.tau, c.Tau),
		conflict("WithLearningRate", set.etaSet, set.learningRate, c.Eta),
		conflict("WithLambda", set.lambdaSet, set.lambda, c.Lambda),
		conflict("WithLoss", set.lossSet, set.loss, Loss(c.Loss)),
	} {
		if chk != nil {
			return chk
		}
	}
	set.rank = c.Rank
	set.k = c.K
	set.shards = c.Shards
	set.seed = c.Seed
	set.tau, set.tauSet = c.Tau, true
	set.learningRate = c.Eta
	set.lambda = c.Lambda
	set.loss = Loss(c.Loss)
	return nil
}

// walReplay is the record-at-a-time replay state machine: it applies
// committed batches past the barrier, skips what the checkpoint already
// covers, and holds the last commit for the final stream-position
// restore.
type walReplay struct {
	s       *Session
	barrier uint64
	cur     uint64
	pending []Measurement
	last    *dataset.WALCommit
}

// handle folds one scanned record into the replay.
func (rp *walReplay) handle(rec *dataset.WALRecord) error {
	switch rec.Kind {
	case dataset.WALHeaderRecord:
		if len(rp.pending) != 0 {
			return fmt.Errorf("%w: segment header inside an uncommitted batch", ErrWAL)
		}
		rp.cur = rec.Base
	case dataset.WALMeasurementRecord:
		rp.cur++
		if rp.cur > rp.barrier {
			rp.pending = append(rp.pending, rec.M)
		}
	case dataset.WALCommitRecord:
		co := rec.Commit
		if co.Seq != rp.cur {
			return fmt.Errorf("%w: commit at sequence %d, log position is %d", ErrWAL, co.Seq, rp.cur)
		}
		if co.Seq > rp.barrier {
			if !co.Skip {
				// Skip barriers cover measurements the original run
				// logged but discarded (an interrupted collection);
				// replay discards them the same way and only adopts
				// the recorded stream positions.
				if err := rp.s.applyReplayed(rp.pending, co.Batch); err != nil {
					return err
				}
				mWALReplayed.Add(uint64(len(rp.pending)))
			}
			cc := co
			rp.last = &cc
		}
		rp.pending = rp.pending[:0]
	}
	return nil
}

// finish restores the stream positions the last replayed barrier
// recorded and cross-checks the step counter against the log's.
func (rp *walReplay) finish() error {
	s, last := rp.s, rp.last
	if last == nil {
		return nil
	}
	if got := uint64(s.drv.Steps()); got != last.Steps {
		return fmt.Errorf("%w: replay reached step %d, log committed %d (log belongs to a different run?)", ErrWAL, got, last.Steps)
	}
	if err := s.drv.FastForwardMaster(last.Draws); err != nil {
		return fmt.Errorf("%w: %v", ErrWAL, err)
	}
	if err := seekCursors(s.src, last.Cursors); err != nil {
		return fmt.Errorf("%w: %v", ErrWAL, err)
	}
	s.wal.setSeq(last.Seq)
	return nil
}

// replayWAL applies the log's committed tail past the checkpoint
// barrier, then restores the stream positions the last barrier
// recorded. The on-disk segments are scanned in index order as one
// logical stream; entries at or below the barrier are already in the
// restored state and are skipped. A torn record ends the trusted
// prefix — the rest of that segment and every later one are discarded
// (a segment whose very first line is torn, or an empty zero-byte
// segment from a crash between create and header write, counts as such
// a tail). Afterwards the chain is aligned for appends: segments past
// the last commit are deleted, the segment holding it is truncated
// there and adopted as the active append target, and fully-covered
// older segments stay until the next checkpoint barrier deletes them.
func (s *Session) replayWAL(barrier uint64) error {
	ws := s.wal
	idxs, err := dataset.ListWALSegments(ws.dir)
	if err != nil {
		return fmt.Errorf("%w: segment dir: %v", ErrWAL, err)
	}
	rp := &walReplay{s: s, barrier: barrier}
	keepSeg := 0 // segment holding the last whole commit (0 = none)
	keepOff := int64(0)
scan:
	for _, idx := range idxs {
		f, err := os.Open(ws.segPath(idx))
		if err != nil {
			return fmt.Errorf("%w: segment %d: %v", ErrWAL, idx, err)
		}
		sc := dataset.NewWALScanner(f)
		for {
			var rec dataset.WALRecord
			err := sc.Next(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				break scan // torn tail: trust exactly the committed prefix
			}
			if err := rp.handle(&rec); err != nil {
				f.Close()
				return err
			}
			if rec.Kind == dataset.WALCommitRecord {
				keepSeg, keepOff = idx, sc.Offset()
			}
		}
		f.Close()
	}
	if err := rp.finish(); err != nil {
		return err
	}
	return s.alignWAL(keepSeg, keepOff, idxs)
}

// alignWAL positions the log for appends after a replay: everything past the last whole commit is dropped
// (whole segments deleted, the kept segment truncated), and the kept
// segment becomes the active append target. With no commit anywhere the
// chain is cleared entirely — the resumed source re-emits the torn
// measurements, and the next append starts a fresh segment.
func (s *Session) alignWAL(keepSeg int, keepOff int64, idxs []int) error {
	ws := s.wal
	var live []int
	for _, idx := range idxs {
		if keepSeg == 0 || idx > keepSeg {
			if err := os.Remove(ws.segPath(idx)); err != nil {
				return fmt.Errorf("%w: drop torn segment %d: %v", ErrWAL, idx, err)
			}
			continue
		}
		live = append(live, idx)
	}
	ws.live = live
	if keepSeg == 0 {
		return nil
	}
	f, err := os.OpenFile(ws.segPath(keepSeg), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("%w: adopt segment %d: %v", ErrWAL, keepSeg, err)
	}
	if err := f.Truncate(keepOff); err != nil {
		f.Close()
		return fmt.Errorf("%w: truncate tail: %v", ErrWAL, err)
	}
	if _, err := f.Seek(keepOff, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("%w: seek: %v", ErrWAL, err)
	}
	// The scanner's offset excludes the newline after the last commit's
	// JSON value; keep the log line-shaped.
	if _, err := f.WriteString("\n"); err != nil {
		f.Close()
		return fmt.Errorf("%w: %v", ErrWAL, err)
	}
	ws.f = f // the kept prefix starts with this segment's header
	ws.size = keepOff + 1
	return nil
}

// applyReplayed trains on one committed WAL batch through the same path
// that originally applied it: the usual topology and sanity filters,
// then sequential Gauss-Seidel updates or one sharded epoch batch.
func (s *Session) applyReplayed(ms []Measurement, batch bool) error {
	if batch {
		samples := make([]engine.Sample, 0, len(ms))
		for _, m := range ms {
			if !s.usable(m) || !s.drv.IsNeighbor(m.I, m.J) {
				continue
			}
			samples = append(samples, engine.Sample{
				I: m.I, J: m.J,
				Label: ClassOf(s.ds.Metric, m.Value, s.tau).Value(),
			})
		}
		if len(samples) == 0 {
			return nil
		}
		_, err := s.drv.ApplyBatchCtx(context.Background(), samples)
		if err != nil {
			return fmt.Errorf("%w: batch replay: %v", ErrWAL, err)
		}
		return nil
	}
	for _, m := range ms {
		if !s.usable(m) || !s.drv.IsNeighbor(m.I, m.J) {
			continue
		}
		s.drv.ApplyLabel(m.I, m.J, ClassOf(s.ds.Metric, m.Value, s.tau).Value())
	}
	return nil
}
