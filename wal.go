package dmfsgd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"dmfsgd/internal/dataset"
)

// WALSource tees every measurement a source emits into a write-ahead
// log before the session applies it — the durability half of the
// ingestion seam. The log is a directory of NDJSON segments
// (wal-000001.ndjson, wal-000002.ndjson, …) built by WithWALDir. Wrap
// the OUTERMOST layer of a source chain (the session consumes exactly
// what the WAL records, so decorators must sit underneath) and train as
// usual:
//
//	src, _ := dmfsgd.NewMatrixSource(ds, 0, seed)
//	wal, _ := dmfsgd.WithWALDir(src, "train.wal", 0)
//	sess, _ := dmfsgd.NewSessionFromSource(ds, wal, opts...)
//
// The session writes a commit barrier after every batch it applies
// (sequential chunk or epoch group), recording the step counter, the
// master-RNG position and the source-chain cursors at that point. A
// durable checkpoint (SaveCheckpoint, CheckpointChain.Save) records the
// WAL sequence it covers and then deletes the covered segments; on
// restart, ResumeSessionFromSource (or CheckpointChain.Resume) with a
// chain whose outermost layer is a WithWALDir over the same directory
// restores the checkpoint and replays only the log tail — entries
// already folded into the checkpoint are skipped by sequence number, so
// replay at the barrier is idempotent. Measurements after the last
// commit (a torn tail — the crash interrupted their application) are
// discarded; the resumed source re-emits them deterministically.
//
// Once a WAL is attached, training refuses to outrun it: a failed log
// write aborts the run with ErrWAL rather than silently training
// unlogged measurements.
type WALSource struct {
	src   Source
	dir   string
	limit int64    // rotation threshold in bytes
	f     *os.File // active segment, headed; nil until the next append
	index int      // last segment index opened (monotone across barriers)
	size  int64    // bytes written to the active segment
	live  []int    // segment indices currently on disk, ascending

	seq       uint64 // measurements written to the log, ever
	commitSeq uint64 // sequence of the last commit barrier
	err       error  // sticky write failure
	buf       []byte // one batch's encoded lines, reused across appends
}

// DefaultWALSegmentBytes is the rotation threshold WithWALDir applies
// when the caller passes segmentBytes ≤ 0.
const DefaultWALSegmentBytes = 64 << 20

// WithWALDir decorates src with a rotating write-ahead log: NDJSON
// segments under dir, a new segment once the active one reaches
// segmentBytes, one header line per segment. Checkpoint barriers delete
// the covered segments outright, so long-running trainers keep a
// bounded log footprint; resume replays the ordered segment chain.
//
// The directory belongs to the log: any segments already present are
// treated as the previous run's chain — a fresh (non-resume) run must
// start with an empty directory, or the leftover segments will
// contradict the new run at replay.
func WithWALDir(src Source, dir string, segmentBytes int64) (*WALSource, error) {
	if src == nil {
		panic("dmfsgd: WithWALDir needs a source")
	}
	if segmentBytes <= 0 {
		segmentBytes = DefaultWALSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: segment dir: %v", ErrWAL, err)
	}
	idxs, err := dataset.ListWALSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: segment dir: %v", ErrWAL, err)
	}
	ws := &WALSource{src: src, dir: dir, limit: segmentBytes, live: idxs}
	if len(idxs) > 0 {
		ws.index = idxs[len(idxs)-1]
	}
	return ws, nil
}

// segPath names segment idx's file.
func (ws *WALSource) segPath(idx int) string {
	return filepath.Join(ws.dir, dataset.WALSegmentName(idx))
}

// roll makes sure an active segment with room is open: when there is
// none or the active one is full, it opens the next segment and heads it
// with the current sequence as its base.
func (ws *WALSource) roll() error {
	if ws.f != nil && ws.size < ws.limit {
		return nil
	}
	if ws.f != nil {
		if err := ws.f.Close(); err != nil {
			return err
		}
		ws.f = nil
	}
	f, err := os.OpenFile(ws.segPath(ws.index+1), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	ws.index++
	ws.f = f
	ws.size = 0
	ws.live = append(ws.live, ws.index)
	mWALSegments.Inc()
	return dataset.WriteWALHeader(segWriter{ws}, ws.seq)
}

// segWriter appends to the active segment, tallying its byte count.
type segWriter struct{ ws *WALSource }

func (w segWriter) Write(p []byte) (int, error) {
	n, err := w.ws.f.Write(p)
	w.ws.size += int64(n)
	return n, err
}

// Unwrap returns the decorated source.
func (ws *WALSource) Unwrap() Source { return ws.src }

// Seq returns the log's measurement sequence number: the count of
// measurements ever written (across compactions).
func (ws *WALSource) Seq() uint64 { return ws.seq }

// setSeq restores the log sequence on a fresh decorator (resume): the
// next segment header records it as the base, so sequence numbering
// continues across the restart. Deliberately NOT a CursorSource: the
// sequence travels in the checkpoint's WALSeq field and in every
// commit barrier, so the chain-shape contract stays the same whether
// or not a WAL is attached — a checkpoint from a WAL-attached session
// resumes into a chain without one (and vice versa).
func (ws *WALSource) setSeq(seq uint64) {
	ws.seq = seq
	ws.commitSeq = seq
}

// NextBatch pulls from the decorated source and logs what it got. A
// log-write failure is returned (wrapping ErrWAL) with n = 0: the
// fetched measurements are not handed to the consumer, so nothing
// unlogged trains. When the inner source reported a terminal condition
// (io.EOF, a decode error) in the same call, the two errors are joined
// rather than the source's being dropped — errors.Is finds both ErrWAL
// and the terminal error, so a consumer can still tell end-of-stream
// from mid-stream log failure.
func (ws *WALSource) NextBatch(ctx context.Context, buf []Measurement) (int, error) {
	if ws.err != nil {
		return 0, ws.err
	}
	n, err := ws.src.NextBatch(ctx, buf)
	if n > 0 {
		if werr := ws.append(buf[:n]); werr != nil {
			ws.err = werr
			if err != nil {
				return 0, errors.Join(werr, err)
			}
			return 0, werr
		}
	}
	return n, err
}

// loggable reports whether the WAL line format can represent m — the
// same validation the scanner enforces on read. Unrepresentable
// records (negative ids, self-pairs, non-finite fields) are exactly
// the ones no session ever applies, so omitting them from the log
// keeps it parseable without losing any applied measurement.
func loggable(m Measurement) bool {
	return m.I >= 0 && m.J >= 0 && m.I != m.J &&
		!math.IsNaN(m.T) && !math.IsInf(m.T, 0) &&
		!math.IsNaN(m.Value) && !math.IsInf(m.Value, 0)
}

// append writes one batch of measurement lines, opening a segment when
// needed: the batch is encoded into one reused buffer and written with
// one Write, which has returned before the batch is handed on, so
// nothing unlogged trains. Records the line format cannot represent are
// dropped (see loggable); a hostile or buggy custom source must not be
// able to poison the log for the whole run.
func (ws *WALSource) append(ms []Measurement) error {
	buf, kept, from := ws.buf[:0], 0, 0
	for i, m := range ms {
		if !loggable(m) {
			buf = dataset.AppendStream(buf, ms[from:i])
			kept += i - from
			from = i + 1
		}
	}
	buf = dataset.AppendStream(buf, ms[from:])
	kept += len(ms) - from
	ws.buf = buf
	if kept == 0 {
		return nil
	}
	// Rotation happens only at batch boundaries, so a batch and the
	// commit that covers it land in the same segment (the commit may
	// trail measurements from an earlier segment — replay reads the
	// chain as one logical stream, so that is fine).
	if err := ws.roll(); err != nil {
		return fmt.Errorf("%w: segment: %v", ErrWAL, err)
	}
	if _, err := (segWriter{ws}).Write(buf); err != nil {
		return fmt.Errorf("%w: %v", ErrWAL, err)
	}
	ws.seq += uint64(kept)
	mWALRecords.Add(uint64(kept))
	return nil
}

// commit writes a barrier covering every measurement logged so far.
// The session calls it after applying (or, for Skip barriers,
// discarding) each batch; a no-op when nothing was logged since the
// last barrier.
func (ws *WALSource) commit(c dataset.WALCommit) error {
	if ws.err != nil {
		return ws.err
	}
	if ws.seq == ws.commitSeq {
		return nil
	}
	c.Seq = ws.seq
	// seq > commitSeq implies an append opened the active segment.
	if err := dataset.WriteWALCommit(segWriter{ws}, c); err != nil {
		ws.err = fmt.Errorf("%w: commit: %v", ErrWAL, err)
		return ws.err
	}
	ws.commitSeq = ws.seq
	mWALCommits.Inc()
	return nil
}

// compact deletes every live segment after a durable checkpoint
// captured everything in the log. The next append opens a fresh segment
// at the next index — indices never rewind, so a crash can never
// confuse an old segment for a new one.
func (ws *WALSource) compact() error {
	if ws.err != nil {
		return ws.err
	}
	if ws.f != nil {
		if err := ws.f.Close(); err != nil {
			return fmt.Errorf("%w: segment compaction: %v", ErrWAL, err)
		}
		ws.f = nil
	}
	for _, idx := range ws.live {
		if err := os.Remove(ws.segPath(idx)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("%w: segment compaction: %v", ErrWAL, err)
		}
	}
	ws.live = nil
	ws.size = 0
	return nil
}
