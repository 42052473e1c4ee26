package replica

import (
	"bytes"
	"reflect"
	"testing"

	"dmfsgd/internal/ckpt"
	"dmfsgd/internal/wire"
)

// TestCheckpointRoundTrip: State → Checkpoint → bytes → FromCheckpoint
// preserves every row, the version vector and the serving metadata.
func TestCheckpointRoundTrip(t *testing.T) {
	const n, rank, shards = 7, 3, 3
	u := make([]float64, n*rank)
	v := make([]float64, n*rank)
	for k := range u {
		u[k] = float64(k) * 0.5
		v[k] = -float64(k) * 0.25
	}
	vers := []uint64{4, 9, 2}
	st, err := Update(nil, n, rank, shards, Meta{Steps: 77, Tau: 95.5, Metric: 1}, vers, u, v)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ckpt.Write(&buf, st.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	c, err := ckpt.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != n || got.Rank != rank || got.Shards != shards {
		t.Fatalf("geometry %d/%d/%d", got.N, got.Rank, got.Shards)
	}
	if got.Meta != st.Meta {
		t.Errorf("meta %+v, want %+v", got.Meta, st.Meta)
	}
	for p, ver := range vers {
		if got.Vers()[p] != ver {
			t.Errorf("shard %d version %d, want %d", p, got.Vers()[p], ver)
		}
	}
	au, av := st.Blocks()
	bu, bv := got.Blocks()
	if !reflect.DeepEqual(au, bu) || !reflect.DeepEqual(av, bv) {
		t.Fatalf("blocks drifted: %v/%v, want %v/%v", bu, bv, au, av)
	}
}

// TestCheckpointBootstrapPullsOnlyDelta: a follower restored from a
// local checkpoint must gossip only the shards that advanced while it
// was down — not re-pull its whole state.
func TestCheckpointBootstrapPullsOnlyDelta(t *testing.T) {
	const n, rank, shards = 6, 2, 3
	u := make([]float64, n*rank)
	v := make([]float64, n*rank)
	st, err := Update(nil, n, rank, shards, Meta{Steps: 10}, []uint64{3, 3, 3}, u, v)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := FromCheckpoint(st.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	// The trainer advanced shard 1 while the follower was down.
	remote := &wire.VersionVec{N: n, Rank: rank, Shards: shards, Steps: 12, Vers: []uint64{3, 5, 3}}
	stale := restored.StaleShards(remote)
	if len(stale) != 1 || stale[0] != 1 {
		t.Errorf("stale shards %v, want [1]", stale)
	}
}
