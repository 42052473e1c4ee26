package engine

import (
	"context"
	"fmt"
	"iter"
	"math"
	"math/rand"
	goruntime "runtime"
	"slices"
	"sort"
	"sync"

	"dmfsgd/internal/classify"
	"dmfsgd/internal/dataset"
	"dmfsgd/internal/mat"
	"dmfsgd/internal/vec"
)

// Blocks partitions [0, n) into contiguous index blocks and runs fn over
// them on up to workers goroutines. With workers ≤ 1 (or a trivially small
// n) fn runs inline over the whole range. Callers parallelize safely by
// writing only to disjoint index ranges of preallocated output slices —
// the result is then identical to a sequential pass.
func Blocks(n, workers int, fn func(lo, hi int)) {
	const minBlock = 1024 // below this, goroutine overhead dominates
	if workers > n/minBlock {
		workers = n / minBlock
	}
	if workers <= 1 || n <= minBlock {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	block := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ScorePairsCtx fills scores[k] = u_{pairs[k].I} · v_{pairs[k].J} from
// flat row-major snapshot arrays (as produced by Store.SnapshotInto),
// spreading the work over blocks of the pair list. scores must have
// len(pairs). Every block worker polls ctx every few thousand pairs and
// abandons its remaining range once it is cancelled. All workers are
// joined before returning; on cancellation the scores slice is partially
// filled and the context's error is returned.
func ScorePairsCtx(ctx context.Context, u, v []float64, rank int, pairs []mat.Pair, scores []float64, workers int) error {
	if len(scores) != len(pairs) {
		panic("engine: scores length must match pairs")
	}
	Blocks(len(pairs), workers, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			if k&ctxCheckMask == 0 && ctx.Err() != nil {
				return
			}
			p := pairs[k]
			scores[k] = vec.Dot(u[p.I*rank:(p.I+1)*rank], v[p.J*rank:(p.J+1)*rank])
		}
	})
	return ctx.Err()
}

// evalPairs yields the evaluation pairs in row-major order: the
// off-diagonal entries not observed in mask whose ground truth is present.
func evalPairs(mask *mat.Mask, truth *mat.Dense) iter.Seq2[int, int] {
	return func(yield func(i, j int) bool) {
		for i := 0; i < mask.Rows(); i++ {
			for j := 0; j < mask.Cols(); j++ {
				if i != j && !mask.At(i, j) && !truth.IsMissing(i, j) && !yield(i, j) {
					return
				}
			}
		}
	}
}

// sampleEvalPairs returns the first keep pairs of the evaluation list
// after rand.Shuffle(n, …) at seed, where n is the list's length, or nil
// when keep ≥ n (nothing to subsample). It never builds the list: it
// counts the n pairs in one sweep and shuffles a permutation of their
// row-major indices with the same call — Shuffle's draws depend only on
// n, so this is the permutation a shuffled copy of the list would get —
// then resolves the kept indices to pairs in one more sweep, in shuffled
// order. Memory is 4 bytes per pair plus the sample.
func sampleEvalPairs(mask *mat.Mask, truth *mat.Dense, keep int, seed int64) ([]mat.Pair, error) {
	n := 0
	for range evalPairs(mask, truth) {
		n++
	}
	if n <= keep {
		return nil, nil
	}
	// none marks an index outside the sample, so indices run below it.
	const none = math.MaxUint32
	if uint64(n) > none {
		return nil, fmt.Errorf("engine: %d evaluation pairs exceed the subsampler's limit of %d", n, uint32(none))
	}
	perm := make([]uint32, n)
	for k := range perm {
		perm[k] = uint32(k)
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	// Reuse perm as the inverse of the sample: perm[idx] becomes the
	// sample position of row-major index idx, or none.
	kept := slices.Clone(perm[:keep])
	for k := range perm {
		perm[k] = none
	}
	for a, idx := range kept {
		perm[idx] = uint32(a)
	}
	out := make([]mat.Pair, keep)
	idx := 0
	for i, j := range evalPairs(mask, truth) {
		if a := perm[idx]; a != none {
			out[a] = mat.Pair{I: i, J: j}
		}
		idx++
	}
	return out, nil
}

// EvalSpec describes the test-set evaluation shared by both drivers: the
// complement of the training mask, filtered to pairs with present ground
// truth, optionally subsampled, labelled by thresholding the truth matrix
// and scored from a store snapshot.
type EvalSpec struct {
	// Mask is the training observation mask; evaluation runs on its
	// off-diagonal complement ("predict the unmeasured pairs").
	Mask *mat.Mask
	// Truth is the clean ground-truth matrix; pairs missing from it are
	// excluded.
	Truth *mat.Dense
	// Metric and Tau derive the ±1 evaluation labels from Truth.
	Metric dataset.Metric
	Tau    float64
	// MaxPairs > 0 subsamples the pair list deterministically: the
	// sample is the first MaxPairs pairs of the list shuffled by
	// rand.Shuffle at SubsampleSeed, drawn without building the list.
	// 0, or a MaxPairs at or above the list's length, keeps everything.
	MaxPairs      int
	SubsampleSeed int64
	// Workers bounds the label/score goroutines (0 = GOMAXPROCS).
	Workers int
}

// EvalSet runs the evaluation pipeline of spec against the store: one
// consistent snapshot (each shard's read lock taken once — safe while
// runtime nodes keep updating), then block-parallel label computation and
// scoring. Output is identical for every worker count. The full set is
// labelled and scored in place, without listing its pairs; a subsample
// lists only the pairs it keeps. Nothing outlives the call.
func EvalSet(store *Store, spec EvalSpec) (labels, scores []float64) {
	labels, scores, _ = EvalSetCtx(context.Background(), store, spec)
	return labels, scores
}

// EvalSetCtx is EvalSet with cancellation: the block-parallel label and
// score sweeps poll ctx every few thousand pairs, abandon their remaining
// ranges once it is cancelled, and join every worker before returning. On
// cancellation it returns nil slices and the context's error.
func EvalSetCtx(ctx context.Context, store *Store, spec EvalSpec) (labels, scores []float64, err error) {
	var pairs []mat.Pair
	if spec.MaxPairs > 0 {
		if pairs, err = sampleEvalPairs(spec.Mask, spec.Truth, spec.MaxPairs, spec.SubsampleSeed); err != nil {
			return nil, nil, err
		}
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if pairs == nil {
		return evalAll(ctx, store, spec, workers)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	labels = make([]float64, len(pairs))
	Blocks(len(pairs), workers, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			if idx&ctxCheckMask == 0 && ctx.Err() != nil {
				return
			}
			p := pairs[idx]
			labels[idx] = classify.Of(spec.Metric, spec.Truth.At(p.I, p.J), spec.Tau).Value()
		}
	})
	scores = make([]float64, len(pairs))
	u, v := store.SnapshotFlat()
	if err := ScorePairsCtx(ctx, u, v, store.rank, pairs, scores, workers); err != nil {
		return nil, nil, err
	}
	return labels, scores, nil
}

// evalAll labels and scores every evaluation pair in row-major order
// without listing the pairs: a block-parallel counting sweep over the
// rows gives each row's offset in that order, then block-parallel sweeps
// over the pair indices fill labels and scores in place, each block
// starting inside the row that holds its first index. It allocates the
// two results, the row offsets and one store snapshot.
func evalAll(ctx context.Context, store *Store, spec EvalSpec, workers int) (labels, scores []float64, err error) {
	mask, truth := spec.Mask, spec.Truth
	rows := mask.Rows()
	// off[i+1] counts row i's evaluation pairs, then, summed, is the
	// index one past them.
	off := make([]int, rows+1)
	Blocks(rows, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			n := 0
			for j, x := range truth.Row(i) {
				if evalPair(mask, i, j, x) {
					n++
				}
			}
			off[i+1] = n
		}
	})
	for i := range rows {
		off[i+1] += off[i]
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	total := off[rows]
	labels = make([]float64, total)
	scores = make([]float64, total)
	u, v := store.SnapshotFlat()
	r := store.rank
	Blocks(total, workers, func(lo, hi int) {
		i := sort.SearchInts(off, lo+1) - 1 // the row holding index lo
		skip := lo - off[i]
		for k := lo; k < hi; i++ {
			ui := u[i*r : (i+1)*r]
			for j, x := range truth.Row(i) {
				if k == hi {
					break
				}
				if !evalPair(mask, i, j, x) {
					continue
				}
				if skip > 0 {
					skip--
					continue
				}
				if k&ctxCheckMask == 0 && ctx.Err() != nil {
					return
				}
				labels[k] = classify.Of(spec.Metric, x, spec.Tau).Value()
				scores[k] = vec.Dot(ui, v[j*r:(j+1)*r])
				k++
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return labels, scores, nil
}

// evalPair reports whether (i, j), whose ground truth is x, is an
// evaluation pair — the test evalPairs applies.
func evalPair(mask *mat.Mask, i, j int, x float64) bool {
	return i != j && !math.IsNaN(x) && !mask.At(i, j)
}
