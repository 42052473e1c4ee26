// The unified /healthz schema. Every dmfserve role — standalone
// trainer, cluster trainer, gossip source, read replica — answers
// /healthz with one healthReply; the optional field groups are embedded
// struct pointers that encoding/json omits entirely when nil, so the
// wire keys stay flat and each role exposes exactly the groups that
// apply to it. TestHealthReplySchema pins the field set.
package main

// healthReply is the /healthz response body.
//
//	status  "ok" once a serving snapshot exists, "syncing" before
//	        (a follower still bootstrapping answers 503 + "syncing")
//	role    standalone | trainer | cluster-trainer | follower
//	steps   updates folded into the serving snapshot (0 while syncing)
//
// The same quantities are exported as gauges on /metrics
// (dmf_serving_ready, dmf_serving_steps, dmf_wal_lag_steps, ...) from
// the same underlying state — /healthz is for humans and orchestration
// probes, /metrics for scrapers.
type healthReply struct {
	Status string `json:"status"`
	Role   string `json:"role"`
	Steps  int64  `json:"steps"`

	*clusterHealth
	*replicaHealth
	*durabilityHealth
}

// clusterHealth is present whenever the process has a trainer identity
// (-trainer-id), including the degenerate cluster of one on the legacy
// single-trainer path (where round stays 0 and every shard is owned
// locally). Its fields mirror cluster.Status, which converts to it.
type clusterHealth struct {
	ID          uint32   `json:"trainer_id"`
	Incarnation uint32   `json:"incarnation"`
	Epoch       uint64   `json:"epoch"`
	Round       uint64   `json:"round"`
	Shards      int      `json:"shards"`
	OwnedShards int      `json:"owned_shards"`
	Owners      []uint32 `json:"owners"`
	Live        []uint32 `json:"live"`
	ClockLag    uint64   `json:"clock_lag"`
}

// replicaHealth is present when the replication tier is active (either
// side of gossip): how far the local mirror trails the freshest state
// it has heard of.
type replicaHealth struct {
	LagSteps    uint64 `json:"lag_steps"`
	StaleShards int    `json:"stale_shards"`
	// SinceAdvanceMS is nil until the first applied delta.
	SinceAdvanceMS *int64 `json:"since_advance_ms,omitempty"`
}

// durabilityHealth is present when -checkpoint is configured: wal_lag
// counts applied updates not yet covered by a durable checkpoint (they
// live only in the WAL or, without one, would retrain on restart).
type durabilityHealth struct {
	CheckpointSteps int64 `json:"checkpoint_steps"`
	WALLag          int64 `json:"wal_lag"`
}
