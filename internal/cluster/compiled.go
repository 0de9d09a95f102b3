package cluster

import (
	"cafc/internal/vector"
)

// CompiledSpace is the packed counterpart of VectorSpace: every object
// is a term-interned vector.Compiled with its norm fixed at compile
// time, so Sim is a merge join over sorted ID slices — no map lookups,
// no hashing, no norm recomputation. It implements Space, so KMeans,
// HAC, FarthestFirst and Silhouette run on packed data unchanged.
//
// After construction the space is immutable and safe for the parallel
// kernels to read from any number of goroutines.
type CompiledSpace struct {
	Dict *vector.Dict
	Vecs []vector.Compiled
}

// NewCompiledSpace compiles the given map vectors against a fresh
// dictionary. Weights are carried over exactly, so similarities agree
// with the map path up to floating-point summation order.
func NewCompiledSpace(vecs []vector.Vector) *CompiledSpace {
	d := vector.NewDict()
	cs := &CompiledSpace{Dict: d, Vecs: make([]vector.Compiled, len(vecs))}
	for i, v := range vecs {
		cs.Vecs[i] = vector.Compile(v, d)
	}
	return cs
}

// Len implements Space.
func (s *CompiledSpace) Len() int { return len(s.Vecs) }

// Point implements Space.
func (s *CompiledSpace) Point(i int) Point { return s.Vecs[i] }

// Centroid implements Space: members are summed into a dense
// vocabulary-sized accumulator and compiled back to packed form.
func (s *CompiledSpace) Centroid(members []int) Point {
	acc := vector.NewAccumulator(s.Dict.Len())
	for _, m := range members {
		acc.Add(s.Vecs[m])
	}
	if len(members) == 0 {
		return acc.Compile(0)
	}
	return acc.Compile(1 / float64(len(members)))
}

// Sim implements Space with packed cosine similarity.
func (s *CompiledSpace) Sim(a, b Point) float64 {
	return vector.CosineCompiled(a.(vector.Compiled), b.(vector.Compiled))
}

// NewCentroidIndex implements CentroidScorer: centroids become a
// term → centroid postings index, so a sparse point scores only the
// centroids it shares terms with instead of merge-joining against every
// centroid's full (dense) term set. Postings accumulate each dot product
// in ascending term-ID order — the same order as Compiled.Dot's merge
// join — and the cosine conversion is the shared CosineDot, so the
// similarities are bit-identical to Sim.
func (s *CompiledSpace) NewCentroidIndex(centroids []Point) CentroidIndex {
	vs := make([]vector.Compiled, len(centroids))
	for i, c := range centroids {
		cv, ok := c.(vector.Compiled)
		if !ok {
			return nil
		}
		vs[i] = cv
	}
	return &compiledCentroidIndex{space: s, post: vector.NewPostings(vs)}
}

type compiledCentroidIndex struct {
	space *CompiledSpace
	post  *vector.Postings
}

// ScratchLen implements CentroidIndex; the single-space index needs no
// scratch beyond the sims buffer itself.
func (ix *compiledCentroidIndex) ScratchLen() int { return 0 }

// Sims implements CentroidIndex.
func (ix *compiledCentroidIndex) Sims(sims, _ []float64, i int) {
	q := ix.space.Vecs[i]
	ix.post.Dots(q, sims)
	for c := range sims {
		sims[c] = vector.CosineDot(sims[c], q.Norm, ix.post.Norm(c))
	}
}

// SimOne implements CentroidIndex through the postings' dense row.
func (ix *compiledCentroidIndex) SimOne(_ []float64, i, c int) float64 {
	q := ix.space.Vecs[i]
	return vector.CosineDot(ix.post.DotOne(q, c), q.Norm, ix.post.Norm(c))
}
