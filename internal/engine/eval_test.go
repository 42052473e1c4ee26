package engine

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"dmfsgd/internal/classify"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/mat"
	"dmfsgd/internal/vec"
)

func TestBlocksCoversEachIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {1000, 4}, {4096, 1}, {50000, 8}, {50001, 7},
	} {
		hits := make([]int32, tc.n)
		Blocks(tc.n, tc.workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d workers=%d: index %d hit %d times", tc.n, tc.workers, i, h)
			}
		}
	}
}

// TestScorePairsParallelEquivalence: block-parallel scoring is
// bit-identical to a sequential pass — the satellite equivalence contract.
func TestScorePairsParallelEquivalence(t *testing.T) {
	const n, rank = 200, 10
	rng := rand.New(rand.NewSource(31))
	u := make([]float64, n*rank)
	v := make([]float64, n*rank)
	vec.RandUniform(rng, u)
	vec.RandUniform(rng, v)
	var pairs []mat.Pair
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				pairs = append(pairs, mat.Pair{I: i, J: j})
			}
		}
	}
	seq := make([]float64, len(pairs))
	if err := ScorePairsCtx(context.Background(), u, v, rank, pairs, seq, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par := make([]float64, len(pairs))
		if err := ScorePairsCtx(context.Background(), u, v, rank, pairs, par, workers); err != nil {
			t.Fatal(err)
		}
		for k := range seq {
			if seq[k] != par[k] {
				t.Fatalf("workers=%d: score[%d] = %v, want %v", workers, k, par[k], seq[k])
			}
		}
	}
}

// evalFixture builds a mask/truth pair with a few measured entries and a
// hole in the ground truth.
func evalFixture(n int) (*mat.Mask, *mat.Dense) {
	mask := mat.NewMask(n, n)
	truth := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				truth.SetMissing(i, j)
				continue
			}
			truth.Set(i, j, float64(10+(i*j)%90))
			if (i+j)%5 == 0 {
				mask.Set(i, j)
			}
		}
	}
	truth.SetMissing(1, 2) // ground-truth hole: excluded from eval pairs
	return mask, truth
}

// TestEvalSetCtxCancelled: a cancelled context aborts the sweep with the
// context error and nil output.
func TestEvalSetCtxCancelled(t *testing.T) {
	const n = 40
	mask, truth := evalFixture(n)
	store := NewStore(n, 6, 2)
	store.InitUniform(rand.New(rand.NewSource(7)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	labels, scores, err := EvalSetCtx(ctx, store, EvalSpec{
		Mask: mask, Truth: truth, Metric: dataset.RTT, Tau: 50, Workers: 4,
	})
	if err == nil || labels != nil || scores != nil {
		t.Fatalf("cancelled eval: labels=%v scores=%v err=%v", labels, scores, err)
	}
}

// TestRunEpochCtxCancelled: an already-cancelled context stops the epoch
// before any shard sweep; the store remains finite and usable.
func TestRunEpochCtxCancelled(t *testing.T) {
	e := testEngine(t, 50, 6, 4, 4, true, 19)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nCancelled, err := e.RunEpochCtx(ctx, 8)
	if err == nil {
		t.Fatal("cancelled epoch reported no error")
	}
	if nCancelled != 0 {
		t.Fatalf("cancelled-before-start epoch applied %d updates", nCancelled)
	}
	// The engine is still usable afterwards.
	if n, err := e.RunEpochCtx(context.Background(), 8); err != nil || n == 0 {
		t.Fatalf("epoch after cancel: n=%d err=%v", n, err)
	}
	for i := 0; i < e.N(); i++ {
		c := e.Store().Coord(i)
		for _, x := range append(append([]float64(nil), c.U...), c.V...) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatal("non-finite coordinates after cancel/resume")
			}
		}
	}
}

// TestSnapshotScoresMatchPredict: snapshot-scored values equal per-pair
// live predictions on a quiescent engine.
func TestSnapshotScoresMatchPredict(t *testing.T) {
	e := testEngine(t, 50, 6, 4, 4, true, 17)
	e.Run(2000)
	var pairs []mat.Pair
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			if i != j {
				pairs = append(pairs, mat.Pair{I: i, J: j})
			}
		}
	}
	u, v := e.Store().SnapshotFlat()
	scores := make([]float64, len(pairs))
	if err := ScorePairsCtx(context.Background(), u, v, e.Store().Rank(), pairs, scores, 4); err != nil {
		t.Fatal(err)
	}
	for k, p := range pairs {
		if want := e.Predict(p.I, p.J); scores[k] != want {
			t.Fatalf("pair %v: %v != %v", p, scores[k], want)
		}
	}
}

// copyShuffleEvalSet is the subsampled evaluation as a shuffled copy of
// the whole pair list: list the evaluation pairs row-major, shuffle a
// copy with rand.Shuffle at the subsample seed, keep the first MaxPairs,
// then label and score them. EvalSet must return exactly this without
// building the list.
func copyShuffleEvalSet(store *Store, spec EvalSpec) (labels, scores []float64) {
	var pairs []mat.Pair
	for i := 0; i < spec.Mask.Rows(); i++ {
		for j := 0; j < spec.Mask.Cols(); j++ {
			if i != j && !spec.Mask.At(i, j) && !spec.Truth.IsMissing(i, j) {
				pairs = append(pairs, mat.Pair{I: i, J: j})
			}
		}
	}
	if spec.MaxPairs > 0 && len(pairs) > spec.MaxPairs {
		pairs = append([]mat.Pair(nil), pairs...)
		rand.New(rand.NewSource(spec.SubsampleSeed)).Shuffle(len(pairs), func(a, b int) {
			pairs[a], pairs[b] = pairs[b], pairs[a]
		})
		pairs = pairs[:spec.MaxPairs]
	}
	u, v := store.SnapshotFlat()
	rank := store.Rank()
	for _, p := range pairs {
		labels = append(labels, classify.Of(spec.Metric, spec.Truth.At(p.I, p.J), spec.Tau).Value())
		scores = append(scores, vec.Dot(u[p.I*rank:(p.I+1)*rank], v[p.J*rank:(p.J+1)*rank]))
	}
	return labels, scores
}

// TestEvalSubsampleMatchesCopyShuffle: the subsample drawn from an index
// permutation equals the shuffled-copy reference, pair for pair in
// shuffled order, for several seeds and MaxPairs ∈ {1, N−1, N, N+1}; and
// MaxPairs 0 returns the full set in row-major order.
func TestEvalSubsampleMatchesCopyShuffle(t *testing.T) {
	const n = 40
	mask, truth := evalFixture(n)
	store := NewStore(n, 6, 4)
	store.InitUniform(rand.New(rand.NewSource(8)))
	full, _ := copyShuffleEvalSet(store, EvalSpec{Mask: mask, Truth: truth, Metric: dataset.RTT, Tau: 50})
	N := len(full)
	for _, seed := range []int64{1, 2, 3, 7919} {
		for _, maxPairs := range []int{0, 1, N - 1, N, N + 1} {
			spec := EvalSpec{
				Mask: mask, Truth: truth, Metric: dataset.RTT, Tau: 50,
				MaxPairs: maxPairs, SubsampleSeed: seed, Workers: 2,
			}
			wantL, wantS := copyShuffleEvalSet(store, spec)
			gotL, gotS := EvalSet(store, spec)
			if len(gotL) != len(wantL) || len(gotS) != len(wantS) {
				t.Fatalf("seed %d maxPairs %d: %d pairs, want %d", seed, maxPairs, len(gotL), len(wantL))
			}
			for k := range wantL {
				if gotL[k] != wantL[k] || math.Float64bits(gotS[k]) != math.Float64bits(wantS[k]) {
					t.Fatalf("seed %d maxPairs %d: entry %d = (%v,%v), want (%v,%v)",
						seed, maxPairs, k, gotL[k], gotS[k], wantL[k], wantS[k])
				}
			}
		}
	}
}

// TestEvalFullSetWorkerInvariant: the full set, filled in place from row
// offsets, equals the listed reference in row-major order for every
// worker count — including counts whose blocks start mid-row and rows
// with no evaluation pair at all.
func TestEvalFullSetWorkerInvariant(t *testing.T) {
	const n = 120
	mask, truth := evalFixture(n)
	for j := 0; j < n; j++ {
		truth.SetMissing(7, j) // a row with no evaluation pair
	}
	store := NewStore(n, 5, 3)
	store.InitUniform(rand.New(rand.NewSource(12)))
	spec := EvalSpec{Mask: mask, Truth: truth, Metric: dataset.RTT, Tau: 50}
	wantL, wantS := copyShuffleEvalSet(store, spec)
	if len(wantL) < 4*1024 {
		t.Fatalf("fixture has %d pairs; too few to split into blocks", len(wantL))
	}
	for _, workers := range []int{1, 2, 3, 7} {
		spec.Workers = workers
		gotL, gotS := EvalSet(store, spec)
		if len(gotL) != len(wantL) || len(gotS) != len(wantS) {
			t.Fatalf("workers %d: %d pairs, want %d", workers, len(gotL), len(wantL))
		}
		for k := range wantL {
			if gotL[k] != wantL[k] || math.Float64bits(gotS[k]) != math.Float64bits(wantS[k]) {
				t.Fatalf("workers %d: entry %d = (%v,%v), want (%v,%v)",
					workers, k, gotL[k], gotS[k], wantL[k], wantS[k])
			}
		}
	}
}
