package main

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// TestHealthReplySchema pins the /healthz wire schema: the exact key
// set a fully-populated reply renders, and the groups a minimal reply
// omits. Adding or renaming a field is a deliberate schema change —
// update healthReply's doc comment and this list together.
func TestHealthReplySchema(t *testing.T) {
	ms := int64(5)
	full := healthReply{
		Status: "ok",
		Role:   "cluster-trainer",
		Steps:  42,
		clusterHealth: &clusterHealth{
			ID: 1, Incarnation: 2, Epoch: 3, Round: 4,
			Shards: 8, OwnedShards: 4,
			Owners: []uint32{0, 1}, Live: []uint32{0, 1}, ClockLag: 7,
		},
		replicaHealth:    &replicaHealth{LagSteps: 9, StaleShards: 1, SinceAdvanceMS: &ms},
		durabilityHealth: &durabilityHealth{CheckpointSteps: 40, WALLag: 2},
	}
	keys := jsonKeys(t, full)
	want := []string{
		"status", "role", "steps",
		"trainer_id", "incarnation", "epoch", "round", "shards",
		"owned_shards", "owners", "live", "clock_lag",
		"lag_steps", "stale_shards", "since_advance_ms",
		"checkpoint_steps", "wal_lag",
	}
	sort.Strings(want)
	if got := strings.Join(keys, ","); got != strings.Join(want, ",") {
		t.Errorf("full healthz keys = %v\nwant %v", keys, want)
	}

	// A standalone serving process exposes exactly the core triple: the
	// nil embedded group pointers must vanish from the wire.
	keys = jsonKeys(t, healthReply{Status: "ok", Role: "standalone", Steps: 1})
	if got := strings.Join(keys, ","); got != "role,status,steps" {
		t.Errorf("minimal healthz keys = %v, want [role status steps]", keys)
	}
}

// TestHealthReplyWALLagZero: a durable process with nothing to replay
// must still render "wal_lag":0 — the CI smokes grep for it.
func TestHealthReplyWALLagZero(t *testing.T) {
	b, err := json.Marshal(healthReply{
		Status: "ok", Role: "trainer", Steps: 10,
		durabilityHealth: &durabilityHealth{CheckpointSteps: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"wal_lag":0`) {
		t.Errorf("zero wal_lag not rendered: %s", b)
	}
}

// TestHealthReplySinceAdvanceOmitted: the only optional field inside a
// group is since_advance_ms (nil before the first applied delta).
func TestHealthReplySinceAdvanceOmitted(t *testing.T) {
	b, err := json.Marshal(healthReply{
		Status: "syncing", Role: "follower",
		replicaHealth: &replicaHealth{LagSteps: 3, StaleShards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "since_advance_ms") {
		t.Errorf("nil since_advance_ms rendered: %s", b)
	}
	if !strings.Contains(string(b), `"lag_steps":3`) {
		t.Errorf("lag_steps missing: %s", b)
	}
}

func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
