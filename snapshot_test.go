package dmfsgd

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// TestSnapshotBitIdenticalAtQuiescence: with no training in flight, a
// snapshot's predictions must equal the live session's bit for bit — the
// acceptance criterion for serving from frozen coordinates.
func TestSnapshotBitIdenticalAtQuiescence(t *testing.T) {
	ds := NewMeridianDataset(60, 21)
	sess, err := NewSession(ds, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot()
	if snap.N() != ds.N() || snap.Dim() != 10 {
		t.Fatalf("snapshot shape %dx%d", snap.N(), snap.Dim())
	}
	if snap.Steps() != sess.Steps() {
		t.Errorf("snapshot steps %d != session %d", snap.Steps(), sess.Steps())
	}
	var pairs []PathPair
	for i := 0; i < ds.N(); i++ {
		for j := 0; j < ds.N(); j++ {
			if i != j {
				pairs = append(pairs, PathPair{I: i, J: j})
			}
		}
	}
	scores := snap.PredictBatch(pairs, nil)
	for k, p := range pairs {
		live := sess.Predict(p.I, p.J)
		if scores[k] != live {
			t.Fatalf("PredictBatch(%d,%d) = %v, live = %v", p.I, p.J, scores[k], live)
		}
		if one := snap.Predict(p.I, p.J); one != scores[k] {
			t.Fatalf("Predict(%d,%d) = %v, batch = %v", p.I, p.J, one, scores[k])
		}
		if snap.Classify(p.I, p.J) != sess.Classify(p.I, p.J) {
			t.Fatalf("Classify(%d,%d) mismatch", p.I, p.J)
		}
	}
	// Caller-owned buffer path: no reallocation, same values.
	buf := make([]float64, len(pairs))
	if got := snap.PredictBatch(pairs, buf); &got[0] != &buf[0] {
		t.Error("PredictBatch reallocated the caller's buffer")
	}
	for k := range buf {
		if buf[k] != scores[k] {
			t.Fatal("buffered batch differs")
		}
	}
}

// TestSnapshotImmutable: training after materialization must not change
// an existing snapshot.
func TestSnapshotImmutable(t *testing.T) {
	ds := NewMeridianDataset(50, 22)
	sess, err := NewSession(ds, WithSeed(22))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background(), 5000); err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot()
	before := snap.Predict(1, 2)
	if err := sess.Run(context.Background(), 20000); err != nil {
		t.Fatal(err)
	}
	if snap.Predict(1, 2) != before {
		t.Error("snapshot changed after further training")
	}
	if snap.Predict(1, 2) == sess.Predict(1, 2) {
		t.Log("note: live prediction unchanged by 20k updates (unlikely but not impossible)")
	}
}

func TestSnapshotRank(t *testing.T) {
	ds := NewMeridianDataset(80, 23)
	sess, err := NewSession(ds, WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot()
	candidates := []int{5, 17, 31, 42, 60, 79}
	ranked := snap.Rank(3, candidates)
	if len(ranked) != len(candidates) {
		t.Fatalf("ranked %d of %d candidates", len(ranked), len(candidates))
	}
	seen := map[int]bool{}
	for _, j := range ranked {
		seen[j] = true
	}
	if len(seen) != len(candidates) {
		t.Fatal("Rank dropped or duplicated candidates")
	}
	for k := 1; k < len(ranked); k++ {
		a, b := snap.Predict(3, ranked[k-1]), snap.Predict(3, ranked[k])
		if a < b {
			t.Fatalf("Rank order violated at %d: %v < %v", k, a, b)
		}
	}
	// candidates must not be reordered in place.
	if candidates[0] != 5 || candidates[5] != 79 {
		t.Error("Rank mutated the candidates slice")
	}
}

// TestSnapshotRankTies: equal scores order by ascending node id, so the
// ranking is deterministic.
func TestSnapshotRankTies(t *testing.T) {
	row := []float64{1, 0}
	u := [][]float64{row, row, row, row}
	v := [][]float64{row, row, row, row}
	snap, err := NewSnapshot(RTT, 50, u, v)
	if err != nil {
		t.Fatal(err)
	}
	ranked := snap.Rank(0, []int{3, 1, 2})
	if ranked[0] != 1 || ranked[1] != 2 || ranked[2] != 3 {
		t.Errorf("tie order = %v, want [1 2 3]", ranked)
	}
}

func TestNewSnapshotValidation(t *testing.T) {
	good := [][]float64{{1, 2}, {3, 4}}
	if _, err := NewSnapshot(RTT, 50, nil, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("empty: err = %v", err)
	}
	if _, err := NewSnapshot(RTT, 50, good, [][]float64{{1, 2}}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("length mismatch: err = %v", err)
	}
	if _, err := NewSnapshot(RTT, 50, good, [][]float64{{1, 2}, {3}}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("ragged rows: err = %v", err)
	}
	bad := [][]float64{{1, 2}, {math.NaN(), 4}}
	if _, err := NewSnapshot(RTT, 50, good, bad); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("non-finite: err = %v", err)
	}
}

// TestNewSnapshotMatchesNodes: a snapshot assembled from embeddable Node
// coordinates predicts exactly what the nodes themselves predict.
func TestNewSnapshotMatchesNodes(t *testing.T) {
	const n = 8
	nodes := make([]*Node, n)
	us := make([][]float64, n)
	vs := make([][]float64, n)
	for i := range nodes {
		node, err := NewNode(DefaultConfig(), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		us[i], vs[i] = node.U(), node.V()
	}
	snap, err := NewSnapshot(RTT, 100, us, vs)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Tau() != 100 || snap.Metric() != RTT || snap.Steps() != 0 {
		t.Errorf("metadata: tau=%v metric=%v steps=%d", snap.Tau(), snap.Metric(), snap.Steps())
	}
	if snap.StoreShards() != 0 || snap.Versions() != nil {
		t.Error("assembled snapshot claims store versions")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := snap.Predict(i, j), nodes[i].Score(nodes[j].V()); got != want {
				t.Fatalf("Predict(%d,%d) = %v, node says %v", i, j, got, want)
			}
		}
	}
}

// TestSnapshotConcurrentReadersWhileTraining is the zero-lock serving
// race test: a live swarm mutates the store while one goroutine keeps
// materializing fresh snapshots and many others hammer PredictBatch and
// Rank on whatever snapshot they last saw. Run with -race to verify the
// "no synchronization needed after materialization" contract.
func TestSnapshotConcurrentReadersWhileTraining(t *testing.T) {
	ds := NewMeridianDataset(60, 24)
	sess, err := NewSession(ds,
		WithLive(),
		WithProbeInterval(100*time.Microsecond),
		WithSeed(24),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	stop := make(chan struct{})
	var latest sync.Map // int -> *Snapshot, refreshed by the swapper
	latest.Store(0, sess.Snapshot())

	var wg sync.WaitGroup
	// Snapshot swapper: keeps materializing while trainers mutate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			latest.Store(0, sess.Snapshot())
		}
	}()
	// Readers: batch predictions and rankings, zero locks.
	pairs := make([]PathPair, 256)
	for k := range pairs {
		pairs[k] = PathPair{I: k % ds.N(), J: (k*7 + 1) % ds.N()}
	}
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scores := make([]float64, len(pairs))
			candidates := []int{1, 2, 3, 4, 5, 6, 7, 8}
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, _ := latest.Load(0)
				snap := v.(*Snapshot)
				snap.PredictBatch(pairs, scores)
				_ = snap.Rank(0, candidates)
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
