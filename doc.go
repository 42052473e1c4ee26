// Package dmfsgd is a Go implementation of Decentralized Matrix
// Factorization by Stochastic Gradient Descent (DMFSGD) for predicting
// end-to-end network performance *classes*, reproducing
//
//	Liao, Du, Geurts, Leduc — "Decentralized Prediction of End-to-End
//	Network Performance Classes", ACM CoNEXT 2011.
//
// # The idea
//
// Full-mesh probing of n² network paths does not scale. DMFSGD measures
// only k·n pairs (each node probes k random neighbors) and predicts the
// rest by low-rank matrix completion: the matrix of pairwise performance
// classes ("good" = +1, "bad" = −1) factorizes as X ≈ U·Vᵀ with rank
// r ≪ n because Internet paths share infrastructure. Every node stores
// only its own rows uᵢ and vᵢ of the factors and refines them by
// stochastic gradient descent on each measurement, exchanging coordinates
// piggybacked on probes. No landmarks, no central server, no matrix is
// ever materialized.
//
// The estimate of the path i→j is the scalar x̂ᵢⱼ = uᵢ·vⱼᵀ; its sign is
// the predicted class, and its magnitude orders candidate peers from most
// to least likely good.
//
// # Public API
//
// The root package is organized around four types (see DESIGN.md for
// the full architecture):
//
//   - Session: the context-aware facade over both execution backends —
//     the deterministic simulation driver (default; reproduces the
//     paper's experiments) and the live concurrent swarm (WithLive).
//     Configured with functional options (WithRank, WithTau, WithLoss,
//     WithShards, WithSeed, …) that reject bad values with errors
//     wrapping ErrInvalidConfig. Training runs under a context
//     (Run, RunEpochs) and streams telemetry through Watch.
//   - Source: the ingestion seam — a pull-based, context-aware stream
//     of Measurements through which all training data reaches the
//     engine. MatrixSource samples a static matrix on the classic
//     probe schedule (bit-identical to the sequential driver at a
//     fixed seed), TraceSource replays dynamic traces in time order
//     and in per-epoch groups, StreamSource replays NDJSON captures in
//     constant memory, and SwarmSource taps a live swarm's
//     measurements for capture. Scenario decorators — WithChurn,
//     WithDrift, WithNoise, WithDrop — compose over any source;
//     NewSessionFromSource trains a session from whatever stream
//     results, and NewSession is the thin adapter wrapping a dataset
//     in its canonical source.
//   - Snapshot: an immutable copy of all coordinates in per-shard
//     blocks, materialized from a Session in one pass that copies only
//     the shards that advanced since the last one. Predict,
//     PredictBatch, Rank and Classify serve unlimited concurrent
//     readers with zero synchronization — the serving surface for heavy
//     prediction traffic (cmd/dmfserve exposes it over HTTP). The hot
//     paths are allocation-free in steady state: PredictBatch scores
//     into a caller-owned buffer, RankInto ranks through a pooled
//     scratch, and NewSnapshotBlocks serves directly over a replica
//     state's immutable per-shard blocks so followers publish fresh
//     snapshots without flattening.
//   - Node: an embeddable DMFSGD participant for applications that bring
//     their own networking (observe measurements, predict classes);
//     NewSnapshot assembles a serving Snapshot from gathered Node
//     coordinates.
//
// Durability: Session.Checkpoint (and SaveCheckpoint, which writes
// atomically and compacts the WAL at the barrier) captures full
// training state — factors, version vector, step counter, RNG stream
// positions and source cursors — and ResumeSession restores it so a
// restarted process continues training bit-identically instead of
// relearning from scratch. WithWALDir tees any source chain into an
// NDJSON measurement write-ahead log of bounded segment files whose
// committed tail replays on resume (ResumeSessionFromSource); entries
// already covered by a checkpoint are skipped (idempotent replay at the
// barrier), and checkpoint barriers delete the covered segments.
// CheckpointChain makes saves incremental: per-shard delta checkpoints
// keyed on the version vector with a fresh full base every K saves —
// resume folds the delta chain and replays the ordered segment tail to
// the same bit-identical state. See DESIGN.md §8.
//
// Distributed training: Session.RunCluster drains the measurement
// source through a trainer cluster (internal/cluster) instead of the
// local sequential loop — T identically configured sessions each own a
// contiguous shard range, train the same stream in lockstep rounds,
// route cross-shard updates to the owning trainer, and mirror the other
// shards locally, so every member ends bit-identical to the sequential
// run (partition equivalence) and serves the full coordinate view.
// Per-shard vector clocks keyed by (trainer, incarnation, counter) —
// WithIncarnation, persisted in checkpoints — make restarts and
// failover monotone: a shard can never regress. See DESIGN.md §11 and
// the -trainer-id/-cluster-* flags of cmd/dmfserve.
//
// Observability: every binary shares one dependency-free metrics
// registry (internal/metrics) — atomic counters, gauges and fixed-bucket
// histograms with pre-registered label children, so hot-path observation
// is allocation-free — exposed in Prometheus text format on GET /metrics
// (cmd/dmfserve on the serving mux, cmd/dmfnode via -metrics). The same
// registry carries an NDJSON event-trace sink (-trace, schema
// dmftrace/v1) that records cluster rounds, epochs, gossip deltas and
// checkpoint saves with monotonic timestamps. See DESIGN.md §12.
//
// Project invariants — deterministic iteration in the reproducible
// packages, no wall-clock reads outside the metrics/trace seams,
// dmf_-namespaced metric names, length-checked wire decodes, and
// allocation-free hot paths marked //dmf:zeroalloc — are enforced by a
// dependency-free static-analysis suite (internal/analysis, run as
// `go run ./cmd/dmfvet ./...` in CI) with a //dmf:allow escape hatch
// for justified exceptions. See DESIGN.md §13.
//
// Failures are reported through typed sentinel errors (ErrInvalidConfig,
// ErrStopped, ErrDynamicTrace, ErrLiveSession, ErrCheckpoint, ErrWAL)
// that work with errors.Is; cancelled runs return the context's error.
//
// # Package layout
//
// Implementation packages live under internal/ (sgd, sim, runtime, wire,
// transport, eval, load, …); cmd/dmfbench regenerates every table and
// figure of the paper, cmd/dmfserve serves predictions over HTTP from a
// Snapshot, and examples/ contains runnable walkthroughs. The repository
// benchmark, perfbench/, drives dmfserve over HTTP and records the
// BENCH_*.json perf trail (DESIGN.md §10).
//
// # Execution engine
//
// Both backends execute on one shared layer, internal/engine: a sharded
// coordinate store (nodes partitioned across P shards, each shard owning
// its nodes' (uᵢ, vᵢ) rows behind one lock) plus two schedulers over it.
// The sequential scheduler reproduces the historical single-stream
// semantics bit for bit; the parallel epoch scheduler fans shard sweeps
// out to a worker pool while staying deterministic for a fixed seed
// regardless of shard count (per-node RNG streams, epoch-start snapshots
// for peer reads, cross-shard ABW updates routed through mailboxes and
// applied in sorted order at the epoch barrier). Evaluation of the O(n²)
// held-out pairs is spread over row-blocks, scales with cores, caches
// its pair list across calls, and cancels with the caller's context.
//
// # Quick start
//
//	ds := dmfsgd.NewMeridianDataset(200, 42)     // synthetic RTT matrix
//	sess, err := dmfsgd.NewSession(ds, dmfsgd.WithSeed(42))
//	if err != nil { ... }
//	defer sess.Close()
//	sess.Run(ctx, 0)                              // paper's default budget
//	snap := sess.Snapshot()                       // lock-free serving view
//	fmt.Printf("0→9: %v\n", snap.Classify(0, 9))
package dmfsgd
