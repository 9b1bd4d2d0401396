package simpoint

import (
	"fmt"
	"math"
	"sort"
)

// Rep is one representative interval of a sampling plan: the interval
// closest to its cluster's centroid, standing in for the whole cluster
// with the cluster's instruction-count fraction as its weight.
type Rep struct {
	// Index is the representative's interval index within the window.
	Index int
	// Start is the representative's first instruction as an absolute
	// boundary (the functional-warmup budget of its checkpoint).
	Start uint64
	// Len is the representative's length in committed instructions.
	Len uint64
	// Weight is the fraction of the window's instructions its cluster
	// covers. Weights sum to 1.
	Weight float64
}

// Plan is a sampling plan: which intervals to simulate in detail and
// with what weights to recombine their stats into whole-window
// estimates.
type Plan struct {
	Config
	// WarmupInstrs / WindowInstrs mirror the profile the plan was built
	// from.
	WarmupInstrs uint64
	WindowInstrs uint64
	// ProfiledInstrs is the functional-profiling cost (see Profile).
	ProfiledInstrs uint64
	// NumIntervals is the number of intervals the window was split into.
	NumIntervals int
	// Blocks is the number of distinct static basic blocks observed.
	Blocks int
	// K is the chosen number of clusters (= len(Reps)).
	K int
	// Reps lists the representatives in window order (ascending Start).
	Reps []Rep
	// ErrEstimate is an a-priori sampling-error proxy: the weighted mean
	// distance of intervals to their cluster centroid, normalized by the
	// mean BBV vector norm. 0 means every interval is identical to its
	// representative (the estimate is exact); larger values mean more
	// within-cluster heterogeneity and thus more reconstruction risk.
	ErrEstimate float64
}

// SampledInstrs is the number of instructions the plan simulates in
// detail (the sum of representative lengths).
func (p *Plan) SampledInstrs() uint64 {
	var n uint64
	for _, r := range p.Reps {
		n += r.Len
	}
	return n
}

// Boundaries returns the representatives' start boundaries in ascending
// order — the checkpoint-capture schedule for arch.CaptureSeries.
func (p *Plan) Boundaries() []uint64 {
	out := make([]uint64, len(p.Reps))
	for i, r := range p.Reps {
		out[i] = r.Start
	}
	return out
}

// Cluster builds the sampling plan from a profile: cluster the interval
// BBVs with BIC-selected k, pick per cluster the interval closest to the
// centroid as representative, and weight it by its cluster's share of
// the window's instructions.
func (pr *Profile) Cluster() (*Plan, error) {
	n := len(pr.Intervals)
	if n == 0 {
		return nil, fmt.Errorf("simpoint: cannot cluster an empty profile")
	}
	vecs := make([][]float64, n)
	weights := make([]uint64, n)
	for i, iv := range pr.Intervals {
		vecs[i] = iv.Vec
		weights[i] = iv.Len
	}
	cl := chooseK(vecs, weights, pr.MaxK, pr.Seed)

	// Representative per cluster: the interval nearest its centroid,
	// lowest index on ties.
	repOf := make([]int, cl.k)
	repDist := make([]float64, cl.k)
	clInstrs := make([]uint64, cl.k)
	for c := range repOf {
		repOf[c] = -1
		repDist[c] = math.Inf(1)
	}
	for i := range vecs {
		c := cl.assign[i]
		clInstrs[c] += weights[i]
		if d := sqDist(vecs[i], cl.centers[c]); d < repDist[c] {
			repOf[c], repDist[c] = i, d
		}
	}

	plan := &Plan{
		Config:         pr.Config,
		WarmupInstrs:   pr.WarmupInstrs,
		WindowInstrs:   pr.WindowInstrs,
		ProfiledInstrs: pr.ProfiledInstrs,
		NumIntervals:   n,
		Blocks:         pr.Blocks,
	}
	var totalInstrs uint64
	for _, w := range weights {
		totalInstrs += w
	}
	for c, idx := range repOf {
		if idx < 0 {
			continue // empty cluster (k was clamped by duplicate vectors)
		}
		iv := pr.Intervals[idx]
		plan.Reps = append(plan.Reps, Rep{
			Index:  idx,
			Start:  iv.Start,
			Len:    iv.Len,
			Weight: float64(clInstrs[c]) / float64(totalInstrs),
		})
	}
	sort.Slice(plan.Reps, func(i, j int) bool { return plan.Reps[i].Start < plan.Reps[j].Start })
	plan.K = len(plan.Reps)

	// Error proxy: weighted mean centroid distance over mean vector norm.
	var dist, norm float64
	for i, v := range vecs {
		w := float64(weights[i]) / float64(totalInstrs)
		dist += w * math.Sqrt(sqDist(v, cl.centers[cl.assign[i]]))
		norm += w * math.Sqrt(sqDist(v, make([]float64, len(v))))
	}
	if norm > 0 {
		plan.ErrEstimate = dist / norm
	}
	return plan, nil
}
