package dmfsgd

import "errors"

// Sentinel errors returned by the public API. Test for them with
// errors.Is: every error a Session, Snapshot constructor or option
// returns wraps exactly one of these (or a context error when a Run was
// cancelled — errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) work as usual).
var (
	// ErrInvalidConfig marks a rejected configuration: an out-of-range
	// option value, an impossible topology (k ≥ n), malformed snapshot
	// coordinates, and so on. The wrapped message names the offending
	// parameter.
	ErrInvalidConfig = errors.New("dmfsgd: invalid configuration")

	// ErrStopped is returned by operations on a Session that has been
	// closed with Close.
	ErrStopped = errors.New("dmfsgd: session closed")

	// ErrDynamicTrace is returned by epoch training on a session whose
	// measurement source has no epoch structure: an endless sampler
	// behind scenario decorators, a live capture, or any custom Source
	// that is neither a finite time-ordered replay nor a bare matrix
	// sampler. Epoch training on such a stream would have to invent a
	// grouping the source does not define, which is never what the
	// caller meant — use Session.Run, which drains the stream in order.
	// (Dynamic-trace datasets themselves no longer hit this: their
	// traces replay in per-epoch measurement groups; the historical name
	// is kept for errors.Is compatibility.)
	ErrDynamicTrace = errors.New("dmfsgd: measurement source has no epoch structure")

	// ErrLiveSession is returned by operations that require the
	// deterministic driver (epoch training) when the session was built
	// with WithLive: live swarms train continuously on their own
	// schedule.
	ErrLiveSession = errors.New("dmfsgd: not supported on a live session")

	// ErrCheckpoint is returned by ResumeSession when a checkpoint
	// cannot restore the session being built: a malformed or truncated
	// file, an unsupported format version, a geometry or configuration that
	// contradicts the dataset or the explicitly passed options, or a
	// source chain whose shape differs from the one the checkpoint was
	// taken with. The wrapped message (and, for decode failures, the
	// wrapped ckpt sentinel) names the cause.
	ErrCheckpoint = errors.New("dmfsgd: checkpoint cannot restore this session")

	// ErrWAL is returned when the measurement write-ahead log cannot be
	// written (training refuses to continue without durability once a
	// WAL is attached) or when a replayed WAL contradicts the restored
	// state (a step counter that does not line up means the log belongs
	// to a different run).
	ErrWAL = errors.New("dmfsgd: measurement WAL failure")
)
