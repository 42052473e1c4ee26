package replica

import "dmfsgd/internal/metrics"

// Gossip-tier series (DESIGN.md §12). Bytes are message payloads at
// the replica layer (the transport counts its own frame totals, so the
// two can be compared to spot non-gossip traffic on a shared lane).
var (
	mPushes = metrics.Default().Counter("dmf_replica_gossip_push_total",
		"Version-vector announcements sent (gossip ticks, pushes on publish and reply pushes).")
	mPulls = metrics.Default().Counter("dmf_replica_gossip_pull_total",
		"Delta requests sent for stale shards.")
	mDeltaFrames = metrics.Default().Counter("dmf_replica_delta_frames_sent_total",
		"Delta frames encoded and sent answering pulls.")
	mGossipBytes = metrics.Default().CounterVec("dmf_replica_gossip_bytes_total",
		"Replication message bytes by direction.", "dir")
	mGossipBytesSent = mGossipBytes.With("sent")
	mGossipBytesRecv = mGossipBytes.With("recv")
	mShardsApplied   = metrics.Default().CounterVec("dmf_replica_shards_applied_total",
		"Delta shards applied to local state: full = bootstrap into an empty state, delta = incremental.", "kind")
	mShardsFull  = mShardsApplied.With("full")
	mShardsDelta = mShardsApplied.With("delta")
	mEvictions   = metrics.Default().Counter("dmf_replica_peer_evictions_total",
		"Learned peer addresses evicted after a failed send.")
	mSendsReplaced = metrics.Default().Counter("dmf_replica_sends_replaced_total",
		"Gossip messages dropped unsent because a newer one for the same destination replaced them while a send was in flight.")
	mLagSteps = metrics.Default().Gauge("dmf_replica_lag_steps",
		"Training steps the local state trails the newest advertised remote state.")
	mStaleShards = metrics.Default().Gauge("dmf_replica_stale_shards",
		"Shards the newest advertised remote vector has ahead of the local one.")
)
