package dmfsgd

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"dmfsgd/internal/ckpt"
	"dmfsgd/internal/cluster"
	"dmfsgd/internal/transport"
)

// clusterPair builds T identically configured sessions over one
// in-memory network and joins them into a trainer cluster.
func clusterPair(t *testing.T, ids []uint32, mkds func() *Dataset, opts ...Option) ([]*Session, []*cluster.Trainer) {
	t.Helper()
	net := transport.NewNetwork(transport.NetworkConfig{})
	sessions := make([]*Session, len(ids))
	trainers := make([]*cluster.Trainer, len(ids))
	for i, id := range ids {
		sess, err := NewSession(mkds(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		tr, err := cluster.New(cluster.Config{
			ID:        id,
			Trainers:  ids,
			Transport: net.Attach(fmt.Sprintf("t%d", id)),
			Engine:    sess.Engine(),
			Timeout:   30 * time.Second,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i], trainers[i] = sess, tr
	}
	for i, tr := range trainers {
		for j, id := range ids {
			if i != j {
				tr.AddPeer(id, fmt.Sprintf("t%d", id))
			}
		}
	}
	return sessions, trainers
}

// TestRunClusterMatchesSequentialAUC is the ISSUE acceptance check: a
// two-trainer fixed-seed cluster run converges to the same AUC as the
// legacy single-process sequential run (±0.01), the two members end
// bit-identical to each other (every member serves the full coordinate
// view), and their clocks agree with zero lag at quiescence.
func TestRunClusterMatchesSequentialAUC(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	mkds := func() *Dataset { return NewHPS3Dataset(60, 5) }
	opts := []Option{WithSeed(42), WithShards(4)}

	ref, err := NewSession(mkds(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	refAUC, err := ref.AUC(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}

	sessions, trainers := clusterPair(t, []uint32{1, 2}, mkds, opts...)
	errs := make(chan error, len(trainers))
	for i := range trainers {
		go func(s *Session, tr *cluster.Trainer) {
			errs <- s.RunCluster(ctx, tr, 0, 2048)
		}(sessions[i], trainers[i])
	}
	for range trainers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	for i, s := range sessions {
		auc, err := s.AUC(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(auc-refAUC) > 0.01 {
			t.Errorf("trainer %d: AUC %.4f vs sequential %.4f, want within 0.01", i+1, auc, refAUC)
		}
		if st := trainers[i].Status(); st.ClockLag != 0 || st.Epoch != 0 {
			t.Errorf("trainer %d status at quiescence: %+v", i+1, st)
		}
	}
	// Partition equivalence at the session level: both members hold the
	// identical full coordinate state, so either can serve every shard.
	a, b := sessions[0].store(), sessions[1].store()
	au, av := a.SnapshotFlat()
	bu, bv := b.SnapshotFlat()
	if !bytes.Equal(floatBytes(au), floatBytes(bu)) || !bytes.Equal(floatBytes(av), floatBytes(bv)) {
		t.Error("cluster members' coordinate states diverge")
	}
	if !a.VersionsEqual(b.Versions(nil)) {
		t.Error("cluster members' store versions diverge")
	}
	if sessions[0].Steps() != sessions[1].Steps() {
		t.Errorf("step counters diverge: %d vs %d", sessions[0].Steps(), sessions[1].Steps())
	}
}

// TestCheckpointRecordsIncarnation: the checkpoint carries the
// session's trainer incarnation, and the restart contract (resume with
// incarnation+1) survives a write/read round trip.
func TestCheckpointRecordsIncarnation(t *testing.T) {
	ds := NewMeridianDataset(30, 3)
	sess, err := NewSession(ds, WithSeed(9), WithK(8), WithIncarnation(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Incarnation() != 4 {
		t.Fatalf("Incarnation() = %d", sess.Incarnation())
	}
	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	c, err := ckpt.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if c.Incarnation != 4 {
		t.Fatalf("checkpoint incarnation %d, want 4", c.Incarnation)
	}
	// The restarted process comes back one past the persisted value and
	// records that in its own checkpoints.
	next, err := ResumeSession(ds, bytes.NewReader(data), WithIncarnation(c.Incarnation+1))
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	var buf2 bytes.Buffer
	if err := next.Checkpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	c2, err := ckpt.Read(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Incarnation != 5 {
		t.Fatalf("resumed checkpoint incarnation %d, want 5", c2.Incarnation)
	}
}

// floatBytes views a float slice as raw bytes for exact comparison.
func floatBytes(fs []float64) []byte {
	var buf bytes.Buffer
	for _, f := range fs {
		fmt.Fprintf(&buf, "%x;", math.Float64bits(f))
	}
	return buf.Bytes()
}
