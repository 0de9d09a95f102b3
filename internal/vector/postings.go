package vector

import "sync"

// Postings is a term → (vector, weight) inverted index over a small
// fixed set of compiled vectors — in practice the k cluster centroids of
// one clustering iteration or one classifier epoch. Scoring a sparse
// query against it touches only the centroids that share a term with
// the query, so the cost is O(query nnz × overlap) instead of the
// O(total centroid nnz) a merge join per centroid pays. Centroids are
// dense (the union of their members' terms) while pages are sparse,
// which is exactly the asymmetry an inverted index exploits.
//
// The accumulation order is pinned: Dots walks the query's sorted term
// IDs outward, so each centroid's partial sums arrive in ascending
// term-ID order — the same order Compiled.Dot's merge join adds them.
// Dot products (and therefore similarities) are bit-identical to the
// per-centroid merge joins, which is what lets the clustering kernels
// and the classifier swap in the index without changing a single
// assignment.
//
// A Postings is immutable after construction, apart from the dense rows
// its first DotOne builds, and safe for concurrent readers; callers own
// the dst slices.
type Postings struct {
	// starts is the CSR row index: entries for term id live in
	// [starts[id], starts[id+1]).
	starts []uint32
	// cent and weight are the flattened rows: cent[e] is the vector that
	// carries term weight weight[e].
	cent   []uint32
	weight []float64
	// norms holds each indexed vector's precompiled norm, so callers can
	// turn dot products into cosines without re-walking the vectors.
	norms []float64
	// dense is the same data as a row-major K() × (len(starts)-1) weight
	// matrix, so a single vector can be scored in O(query nnz) — the
	// bound-pruned kernels evaluate individual centroids, and a merge
	// join against a dense centroid would cost O(centroid nnz) instead.
	// Only DotOne reads it, so the first DotOne builds it from the CSR
	// rows (under denseOnce, which makes that first call safe from any
	// number of readers), and an index scored only through Dots never
	// allocates it.
	dense     []float64
	denseOnce sync.Once
}

// NewPostings indexes the given compiled vectors.
func NewPostings(vs []Compiled) *Postings {
	maxID, total := -1, 0
	for _, v := range vs {
		total += len(v.IDs)
		if n := len(v.IDs); n > 0 && int(v.IDs[n-1]) > maxID {
			maxID = int(v.IDs[n-1])
		}
	}
	p := &Postings{
		starts: make([]uint32, maxID+2),
		cent:   make([]uint32, total),
		weight: make([]float64, total),
		norms:  make([]float64, len(vs)),
	}
	for _, v := range vs {
		for _, id := range v.IDs {
			p.starts[id+1]++
		}
	}
	for i := 1; i < len(p.starts); i++ {
		p.starts[i] += p.starts[i-1]
	}
	cursor := append([]uint32(nil), p.starts[:maxID+1]...)
	for c, v := range vs {
		p.norms[c] = v.Norm
		for j, id := range v.IDs {
			at := cursor[id]
			cursor[id]++
			p.cent[at] = uint32(c)
			p.weight[at] = v.Weights[j]
		}
	}
	return p
}

// denseRows returns the dense K() × nrows weight matrix, building it
// from the CSR rows on first use.
func (p *Postings) denseRows() []float64 {
	p.denseOnce.Do(func() {
		nrows := len(p.starts) - 1
		p.dense = make([]float64, p.K()*nrows)
		for id := 0; id < nrows; id++ {
			for e := p.starts[id]; e < p.starts[id+1]; e++ {
				p.dense[int(p.cent[e])*nrows+id] = p.weight[e]
			}
		}
	})
	return p.dense
}

// K returns the number of indexed vectors.
func (p *Postings) K() int { return len(p.norms) }

// Norm returns the precompiled norm of indexed vector c.
func (p *Postings) Norm(c int) float64 { return p.norms[c] }

// Dots fills dst[c] with the inner product of q and indexed vector c,
// bit-identical to q.Dot(that vector) for every c. dst must have length
// K(); entries for vectors sharing no term with q come out exactly 0.
func (p *Postings) Dots(q Compiled, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	nrows := len(p.starts) - 1
	for j, id := range q.IDs {
		if int(id) >= nrows {
			break // query IDs are sorted; nothing indexed beyond here
		}
		w := q.Weights[j]
		for e := p.starts[id]; e < p.starts[id+1]; e++ {
			dst[p.cent[e]] += w * p.weight[e]
		}
	}
}

// DotOne returns the inner product of q and indexed vector c in
// O(query nnz) via the dense row, bit-identical to q.Dot(that vector):
// the walk adds products in the merge join's ascending term-ID order,
// and terms absent from the row contribute an exact ±0 that leaves an
// IEEE accumulator unchanged (the sum can never be -0 mid-stream — it
// starts at +0 and ±0 additions keep it there until the first shared
// term lands, exactly as in the merge join).
func (p *Postings) DotOne(q Compiled, c int) float64 {
	nrows := len(p.starts) - 1
	row := p.denseRows()[c*nrows : (c+1)*nrows]
	var sum float64
	for j, id := range q.IDs {
		if int(id) >= nrows {
			break
		}
		sum += q.Weights[j] * row[id]
	}
	return sum
}
