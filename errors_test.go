package dmfsgd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dmfsgd/internal/cluster"
	"dmfsgd/internal/transport"
)

// TestSentinelErrorsReachCallers pins the error contract of the public
// Session surfaces: every sentinel must survive wrapping all the way to
// the caller, testable with errors.Is. A refactor that re-wraps with
// fmt.Errorf("%v") instead of "%w" breaks callers silently; this table
// catches it.
func TestSentinelErrorsReachCallers(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name    string
		want    error
		trigger func(t *testing.T) error
	}{
		{"invalid-config", ErrInvalidConfig, func(t *testing.T) error {
			_, err := NewSession(NewMeridianDataset(30, 1), WithRank(0))
			return err
		}},
		{"stopped", ErrStopped, func(t *testing.T) error {
			sess, err := NewSession(NewMeridianDataset(30, 1), WithSeed(1), WithK(8))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			return sess.Run(ctx, 10)
		}},
		{"wal", ErrWAL, func(t *testing.T) error {
			ds := NewMeridianDataset(30, 1)
			src, err := NewMatrixSource(ds, 8, 1)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSessionFromSource(ds, walDir(t, src, t.TempDir(), 0), WithSeed(1), WithK(8))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sess.Close() })
			// Native epochs sample internally — nothing reaches the log —
			// so a WAL session refuses them.
			_, err = sess.RunEpochs(ctx, 1, 4)
			return err
		}},
		{"checkpoint", ErrCheckpoint, func(t *testing.T) error {
			_, err := ResumeSession(NewMeridianDataset(30, 1),
				bytes.NewReader([]byte("definitely not a checkpoint")))
			return err
		}},
		{"evicted", cluster.ErrEvicted, func(t *testing.T) error {
			return triggerEviction(t)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.trigger(t); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

// triggerEviction drives a two-trainer cluster into a failover that
// evicts a silent member, then returns what the evicted member's
// session reports through RunCluster.
func triggerEviction(t *testing.T) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	net := transport.NewNetwork(transport.NetworkConfig{})
	ids := []uint32{1, 2}
	mk := func(id uint32) (*Session, *cluster.Trainer) {
		sess, err := NewSession(NewMeridianDataset(40, 2), WithSeed(7), WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		tr, err := cluster.New(cluster.Config{
			ID:        id,
			Trainers:  ids,
			Transport: net.Attach(fmt.Sprintf("e%d", id)),
			Engine:    sess.Engine(),
			Timeout:   200 * time.Millisecond,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sess, tr
	}
	_, t1 := mk(1)
	s2, t2 := mk(2)
	t1.AddPeer(2, "e2")
	t2.AddPeer(1, "e1")
	// Trainer 2 never steps: trainer 1's round times out at the barrier,
	// fails over, and broadcasts an ownership map excluding trainer 2.
	if _, err := t1.Step(ctx, nil); !errors.Is(err, cluster.ErrRoundAborted) {
		t.Fatalf("silent-peer round: %v, want ErrRoundAborted", err)
	}
	// The evicted member discovers its fate through the public surface.
	return s2.RunCluster(ctx, t2, 10, 4)
}
