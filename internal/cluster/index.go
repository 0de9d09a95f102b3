package cluster

// CentroidScorer is an optional capability a Space can implement: build
// a one-shot index over a centroid set so a point can be scored against
// every centroid at once, cheaper than k independent Sim calls. The
// k-means kernels probe for it and fall back to plain Sim loops when it
// is absent; cafc.Model implements it, and the classifier and the
// streaming mini-batch pass score through it directly.
//
// The contract is strict bit-identity: for every point i and centroid c,
// the similarity the index produces must equal Sim(Point(i),
// centroids[c]) exactly — same floating-point operations in the same
// order — so swapping the index in can never change an assignment. A
// space whose Sim cannot be reproduced deterministically term-by-term
// (e.g. the map-backed VectorSpace, where map iteration order would
// reassociate the dot-product sum) must simply not implement this
// interface.
type CentroidScorer interface {
	Space
	// NewCentroidIndex indexes the given centroid set. It may return nil
	// when these particular centroids cannot be indexed (a point
	// representation the space cannot pack); callers must handle nil by
	// falling back to Sim.
	NewCentroidIndex(centroids []Point) CentroidIndex
}

// CentroidIndex scores one point of the originating space against every
// indexed centroid. Implementations are immutable after construction
// and safe for concurrent use; callers own sims and scratch, which is
// what makes the index shardable across the parallel kernels.
type CentroidIndex interface {
	// Sims fills sims[c] with the similarity of point i to centroid c,
	// bit-identical to the space's Sim. sims must have length k (the
	// indexed centroid count) and scratch at least ScratchLen().
	Sims(sims, scratch []float64, i int)
	// SimOne returns the similarity of point i to the single centroid c,
	// bit-identical to both Sim and the corresponding Sims entry, in
	// O(point nnz) — the bound-pruned kernels score individual surviving
	// centroids, where a full Sims pass (or a merge join against a dense
	// centroid) would waste the pruning.
	SimOne(scratch []float64, i, c int) float64
	// ScratchLen is the scratch-buffer length Sims requires (0 when none).
	ScratchLen() int
}
