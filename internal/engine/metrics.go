package engine

import (
	"time"

	"dmfsgd/internal/metrics"
)

// Training-path series (DESIGN.md §12). The step counter advances with
// locally applied sender updates in every mode (sequential, epoch,
// batch, cluster-owned slice), so rate(dmf_engine_steps_total) is
// steps/sec regardless of which path is driving.
var (
	mEpochSec = metrics.Default().Histogram("dmf_engine_epoch_seconds",
		"Duration of parallel training epochs.", metrics.DurationBuckets)
	mBatchSec = metrics.Default().Histogram("dmf_engine_batch_apply_seconds",
		"Duration of the sender half of batch applies (single-trainer and cluster-owned).",
		metrics.DurationBuckets)
	mSteps = metrics.Default().Counter("dmf_engine_steps_total",
		"Successful SGD updates applied locally.")
	mLockWait = metrics.Default().Histogram("dmf_engine_shard_lock_wait_seconds",
		"Wait to acquire a shard write lock on the shared (Ref.Update) discipline.",
		metrics.LatencyBuckets)
	mSnapshotShards = metrics.Default().Counter("dmf_engine_snapshot_shards_copied_total",
		"Shards copied out of the store by snapshot refreshes and shard-block captures (quiet shards a refresh skips are free).")
)

// The helpers below are the package's wall-clock seam: dmfvet's noclock
// analyzer exempts this file, so every duration the training path
// observes is read here and nowhere else. The observations feed metrics
// and traces only — they never influence training state, which is what
// keeps the clock out of the determinism contract.

// startTimer reads the clock for a later observeSince/sinceDur.
func startTimer() time.Time { return time.Now() }

// observeSince records the seconds elapsed since t0 on h.
func observeSince(h *metrics.Histogram, t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// sinceDur returns the duration elapsed since t0, for trace emission.
func sinceDur(t0 time.Time) time.Duration { return time.Since(t0) }
