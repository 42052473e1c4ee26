// Package engine is the shared execution core under both protocol drivers:
// the deterministic sequential simulator (package sim) and the concurrent
// message-passing runtime (package runtime).
//
// It provides three building blocks:
//
//   - Store: a sharded coordinate store. The n nodes are partitioned across
//     P shards (node i lives in shard i mod P); each shard owns its nodes'
//     (uᵢ, vᵢ) pairs in one contiguous backing array and guards them with a
//     single RWMutex. Sequential callers address coordinates directly;
//     concurrent callers go through Ref handles that take the shard lock.
//
//   - Engine: the training executor. Like a node of the paper, it keeps
//     only the labels its neighbors can yield: an n·k neighbor-slot
//     table (SlotTable), never an n×n matrix. Its sequential mode (Step,
//     Run, ApplyLabel) reproduces the historical sim.Driver semantics
//     bit for bit: one master RNG stream drives probe order and every
//     update is applied in place, Gauss-Seidel style. Its parallel mode (RunEpoch)
//     executes one epoch of SGD updates across all shards on a worker
//     pool while staying deterministic for a fixed seed regardless of the
//     shard count:
//
//     – every node owns a private RNG stream derived from the master seed
//     and its node id (per-node rather than per-shard, because the
//     node→shard assignment changes with P and determinism across P is
//     a hard requirement);
//     – peer coordinates are read from an epoch-start snapshot, so a
//     node's updates depend only on its own history, its own stream,
//     and the snapshot — never on sibling scheduling;
//     – the one cross-shard *write* of the protocol — the ABW target
//     update of Algorithm 2 (eq. 13) — is routed through per-shard
//     mailboxes and applied at the epoch barrier in (target, sender,
//     probe) order, which is independent of P.
//
//     The update equations are exactly those of Algorithms 1 and 2; only
//     the schedule differs (epoch-synchronous Jacobi instead of sample-
//     asynchronous Gauss-Seidel), which is the standard parallel-SGD
//     trade and converges to the same quality at the same budget.
//
//   - Block-parallel evaluation helpers (Blocks, ScorePairsCtx) that spread
//     prediction and accumulation over row-blocks of the test-pair set so
//     evaluating O(n²) held-out pairs scales with cores. Parallel scoring
//     is bit-identical to sequential scoring: workers write disjoint index
//     ranges computed from the same snapshot.
package engine
