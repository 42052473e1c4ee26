// Package consensus implements the history-based label filter sketched in
// §6.3: random label errors ("flip randomly", "Good-to-Bad") come mostly
// from network anomalies and malicious nodes, and the paper notes they
// "can be addressed by incorporating heuristics such as inferring the
// class labels using some consensus based on recorded historical
// measurements".
//
// The filter keeps, per peer, a sliding window of the last W observed
// labels and reports the window majority. A malicious target that flips a
// fraction p < ½ of its responses is outvoted once the window fills;
// honest label changes (a path genuinely degrading) still propagate after
// ~W/2 observations, trading detection latency for robustness.
package consensus

import (
	"fmt"

	"dmfsgd/internal/classify"
)

// Filter maintains per-peer observation windows. Not safe for concurrent
// use; each node owns one Filter.
type Filter struct {
	window int
	hist   map[int]*ring
}

// ring is a fixed-capacity circular buffer of ±1 labels with a running sum.
type ring struct {
	buf  []int8
	next int
	n    int
	sum  int
}

// NewFilter creates a filter with the given window size (odd sizes avoid
// ties; even sizes break ties toward "bad", the conservative choice for
// peer selection).
func NewFilter(window int) *Filter {
	if window < 1 {
		panic(fmt.Sprintf("consensus: window %d must be >= 1", window))
	}
	return &Filter{window: window, hist: make(map[int]*ring)}
}

// Observe records one measured label for a peer and returns the filtered
// (majority) label to use for the SGD update.
func (f *Filter) Observe(peer int, c classify.Class) classify.Class {
	r := f.hist[peer]
	if r == nil {
		r = &ring{buf: make([]int8, f.window)}
		f.hist[peer] = r
	}
	v := int8(c)
	if r.n == f.window {
		r.sum -= int(r.buf[r.next])
	} else {
		r.n++
	}
	r.buf[r.next] = v
	r.sum += int(v)
	r.next = (r.next + 1) % f.window
	return f.Current(peer)
}

// Current returns the majority label for a peer from its recorded history,
// or Bad when the peer was never observed (conservative default). Exact
// ties also resolve to Bad.
func (f *Filter) Current(peer int) classify.Class {
	r := f.hist[peer]
	if r == nil || r.n == 0 {
		return classify.Bad
	}
	if r.sum > 0 {
		return classify.Good
	}
	return classify.Bad
}

// Observations returns how many labels are recorded for a peer.
func (f *Filter) Observations(peer int) int {
	if r := f.hist[peer]; r != nil {
		return r.n
	}
	return 0
}

// Reset drops a peer's history (e.g. after the peer rejoins with a new
// identity).
func (f *Filter) Reset(peer int) { delete(f.hist, peer) }

// Peers returns the number of peers with recorded history.
func (f *Filter) Peers() int { return len(f.hist) }
