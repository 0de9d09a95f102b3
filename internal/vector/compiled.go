package vector

import (
	"math"
	"slices"
	"sort"
)

// Compiled is the packed form of a sparse vector: parallel slices of
// term IDs (sorted ascending) and weights, with the Euclidean norm
// precomputed once at compile time. Dot and Cosine over two Compiled
// vectors are merge joins over the sorted ID slices — O(nnz) with no
// map lookups and no hashing, which is what makes the clustering
// kernels memory-bandwidth-bound instead of hash-bound.
//
// A Compiled vector is immutable after construction; it is safe to
// share across goroutines.
type Compiled struct {
	IDs     []uint32
	Weights []float64
	// Norm is the Euclidean length, fixed at compile time.
	Norm float64
}

// NewCompiled wraps already-packed parallel slices (IDs ascending) as a
// Compiled vector, computing its norm as every compile path does: the
// squared weights summed in ascending-ID order. A vector packed and
// stored (its IDs and weight bits) comes back bit-identical.
func NewCompiled(ids []uint32, weights []float64) Compiled {
	var sum float64
	for _, w := range weights {
		sum += w * w
	}
	return Compiled{IDs: ids, Weights: weights, Norm: math.Sqrt(sum)}
}

// Len returns the number of non-zero terms.
func (c Compiled) Len() int { return len(c.IDs) }

// Compile packs v against d, interning any terms d has not seen yet.
// Weights are carried over exactly (no quantization), so Decompile is a
// lossless inverse. New terms are interned in lexicographic order so
// dictionary ID assignment — and with it every downstream compiled
// representation — is deterministic across runs; a map-order walk would
// reshuffle IDs run to run, which replication's bit-identity discipline
// (follower state == leader state, compared field for field) forbids.
func Compile(v Vector, d *Dict) Compiled {
	terms := make([]string, 0, len(v))
	for t := range v {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	ids := make([]uint32, 0, len(terms))
	for _, t := range terms {
		ids = append(ids, d.Intern(t))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	weights := make([]float64, len(ids))
	var sum float64
	for i, id := range ids {
		w := v[d.Term(id)]
		weights[i] = w
		sum += w * w
	}
	return Compiled{IDs: ids, Weights: weights, Norm: math.Sqrt(sum)}
}

// CompileLookup packs v against d without mutating the dictionary:
// terms d has never seen are dropped. This is the read-only path for
// comparing out-of-corpus vectors (classification, probing) against a
// compiled corpus — safe to call concurrently with other readers.
//
// Dropping unknown terms does not change any similarity against
// in-dictionary vectors' dot products, but it does shrink the norm, so
// only use this when unknown terms are known to carry zero weight (as
// TF-IDF embedding against the corpus DF tables guarantees: unseen
// terms get IDF 0 and never enter the vector).
func CompileLookup(v Vector, d *Dict) Compiled {
	// One pass over the map carrying weights along, instead of resolving
	// id -> term -> weight through two more lookups per term afterwards.
	p := Packer{pairs: make([]idWeight, 0, len(v))}
	for t, w := range v {
		if id, ok := d.ID(t); ok {
			p.Add(id, w)
		}
	}
	return p.Pack()
}

// Packer builds a Compiled vector from (ID, weight) pairs added in any
// order: Pack sorts them by ID and sums the norm in ID order, as every
// compile path does. A Packer's scratch is reused across Pack calls; it
// is not safe for concurrent use.
type Packer struct {
	pairs []idWeight
	// keys is Pack's sort scratch: each pair's ID and position as one
	// integer, which sorts without a comparison call per step.
	keys []uint64
}

// idWeight pairs a dictionary ID with its weight during compilation.
type idWeight struct {
	id uint32
	w  float64
}

// Add adds term id with weight w. Each ID may be added once per Pack.
func (p *Packer) Add(id uint32, w float64) {
	p.pairs = append(p.pairs, idWeight{id: id, w: w})
}

// Pack returns the added pairs as a Compiled vector in exact-size
// slices (empty, not nil, when nothing was added) and resets the Packer.
func (p *Packer) Pack() Compiled {
	p.keys = slices.Grow(p.keys[:0], len(p.pairs))
	for i, pr := range p.pairs {
		p.keys = append(p.keys, uint64(pr.id)<<32|uint64(i))
	}
	slices.Sort(p.keys)
	ids := make([]uint32, len(p.pairs))
	weights := make([]float64, len(p.pairs))
	var sum float64
	for i, k := range p.keys {
		pr := p.pairs[uint32(k)]
		ids[i] = pr.id
		weights[i] = pr.w
		sum += pr.w * pr.w
	}
	p.pairs = p.pairs[:0]
	return Compiled{IDs: ids, Weights: weights, Norm: math.Sqrt(sum)}
}

// CompileWeighted packs raw LOC-weighted term occurrences (the paper's
// pre-TF-IDF representation: one entry per occurrence, carrying its
// location factor) into a compiled vector whose weight per term is the
// sum of that term's location factors — LOC·TF, since summing the
// per-occurrence factors equals the mean factor times the term
// frequency. Like Compile, new terms are interned in lexicographic
// order and the norm is accumulated in ascending-ID order, so the
// result is bit-deterministic for a fixed input and dictionary state.
//
// Input that is already one entry per term in strictly ascending term
// order (a term record's summed form) skips the aggregation map and the
// string sort: its terms intern in the order given, which is the
// lexicographic order the general path interns in, and each weight is
// 0 + Loc, the general path's sum, so both paths give the same bits.
func CompileWeighted(ts []WeightedTerm, d *Dict) Compiled {
	if termsAscending(ts) {
		p := Packer{pairs: make([]idWeight, 0, len(ts))}
		for _, t := range ts {
			p.Add(d.Intern(t.Term), 0+t.Loc)
		}
		return p.Pack()
	}
	agg := make(map[string]float64, len(ts))
	for _, t := range ts {
		agg[t.Term] += t.Loc
	}
	terms := make([]string, 0, len(agg))
	for t := range agg {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	ids := make([]uint32, len(terms))
	for i, t := range terms {
		ids[i] = d.Intern(t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	weights := make([]float64, len(ids))
	var sum float64
	for i, id := range ids {
		w := agg[d.Term(id)]
		weights[i] = w
		sum += w * w
	}
	return Compiled{IDs: ids, Weights: weights, Norm: math.Sqrt(sum)}
}

// termsAscending reports whether ts holds each term once, in strictly
// ascending order.
func termsAscending(ts []WeightedTerm) bool {
	for i := 1; i < len(ts); i++ {
		if ts[i-1].Term >= ts[i].Term {
			return false
		}
	}
	return true
}

// TopTerms returns the n highest-weighted terms of c, resolving term
// IDs through d. Ties break on the term string ascending — the same
// total order Vector.TopTerms uses — NOT on term ID: dictionary IDs are
// assigned in page-arrival order, so an ID comparison would rank equal
// weights differently from the map path. For a compiled vector whose
// weights are bit-equal to a map vector's, the output is element-equal
// to Decompile(d).TopTerms(n) without materializing the map; this is
// what lets the live path label clusters from compiled centroids.
func (c Compiled) TopTerms(d *Dict, n int) []string {
	idx := make([]int, len(c.IDs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if c.Weights[i] != c.Weights[j] {
			return c.Weights[i] > c.Weights[j]
		}
		return d.Term(c.IDs[i]) < d.Term(c.IDs[j])
	})
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = d.Term(c.IDs[idx[i]])
	}
	return out
}

// Decompile unpacks c back into a map vector.
func (c Compiled) Decompile(d *Dict) Vector {
	v := make(Vector, len(c.IDs))
	for i, id := range c.IDs {
		v[d.Term(id)] = c.Weights[i]
	}
	return v
}

// Dot returns the inner product of two compiled vectors by merging the
// sorted ID slices.
func (c Compiled) Dot(o Compiled) float64 {
	a, b := c, o
	if len(b.IDs) < len(a.IDs) {
		a, b = b, a
	}
	var sum float64
	i, j := 0, 0
	na, nb := len(a.IDs), len(b.IDs)
	for i < na && j < nb {
		ai, bj := a.IDs[i], b.IDs[j]
		switch {
		case ai == bj:
			sum += a.Weights[i] * b.Weights[j]
			i++
			j++
		case ai < bj:
			i++
		default:
			j++
		}
	}
	return sum
}

// CosineCompiled returns the cosine similarity of two compiled vectors,
// with the same conventions as Cosine: zero-norm vectors have
// similarity 0 with everything, and drift is clamped into [0, 1].
func CosineCompiled(a, b Compiled) float64 {
	return CosineDot(a.Dot(b), a.Norm, b.Norm)
}

// CosineDot turns an already-computed inner product and the two norms
// into a cosine similarity with the package's conventions (zero norms →
// 0, drift clamped into [0, 1]). CosineCompiled routes through it, so a
// caller that produced the dot product another way — e.g. through a
// Postings index — gets a bit-identical similarity.
func CosineDot(dot, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	c := dot / (na * nb)
	if c > 1 {
		c = 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// Accumulator sums compiled vectors into a dense weight array so
// centroids can be built in O(total nnz) and compiled back to packed
// form. The dense array is vocabulary-sized and reused across Reset
// calls, so one Accumulator per worker amortizes the allocation across
// every centroid that worker builds.
type Accumulator struct {
	dense   []float64
	touched []uint32
	seen    []bool
}

// NewAccumulator returns an accumulator for a vocabulary of the given
// size (Dict.Len of the dictionary the inputs were compiled against).
func NewAccumulator(vocab int) *Accumulator {
	return &Accumulator{
		dense: make([]float64, vocab),
		seen:  make([]bool, vocab),
	}
}

// grow widens the dense arrays when vectors compiled against a larger
// dictionary arrive.
func (a *Accumulator) grow(min int) {
	if min <= len(a.dense) {
		return
	}
	dense := make([]float64, min)
	copy(dense, a.dense)
	a.dense = dense
	seen := make([]bool, min)
	copy(seen, a.seen)
	a.seen = seen
}

// Add accumulates c term-wise.
func (a *Accumulator) Add(c Compiled) {
	if n := len(c.IDs); n > 0 {
		a.grow(int(c.IDs[n-1]) + 1)
	}
	for i, id := range c.IDs {
		if !a.seen[id] {
			a.seen[id] = true
			a.touched = append(a.touched, id)
		}
		a.dense[id] += c.Weights[i]
	}
}

// Compile packs the accumulated sum, scaled by f, into a Compiled
// vector and resets the accumulator for reuse. Term IDs come out sorted
// regardless of insertion order, so the result is deterministic.
func (a *Accumulator) Compile(f float64) Compiled {
	sort.Slice(a.touched, func(i, j int) bool { return a.touched[i] < a.touched[j] })
	ids := make([]uint32, len(a.touched))
	weights := make([]float64, len(a.touched))
	var sum float64
	for i, id := range a.touched {
		w := a.dense[id] * f
		ids[i] = id
		weights[i] = w
		sum += w * w
		a.dense[id] = 0
		a.seen[id] = false
	}
	a.touched = a.touched[:0]
	return Compiled{IDs: ids, Weights: weights, Norm: math.Sqrt(sum)}
}

// CentroidCompiled returns the term-wise mean of the given compiled
// vectors — the packed counterpart of Centroid. An empty input yields
// an empty vector.
func CentroidCompiled(vs []Compiled, acc *Accumulator) Compiled {
	if len(vs) == 0 {
		return Compiled{}
	}
	if acc == nil {
		acc = NewAccumulator(0)
	}
	for _, v := range vs {
		acc.Add(v)
	}
	return acc.Compile(1 / float64(len(vs)))
}
