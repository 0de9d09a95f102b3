package cafc

import (
	"math"
	"slices"
	"sync"

	"cafc/internal/cluster"
	"cafc/internal/vector"
)

// classifyEngine is the classifier's zero-allocation serve path: the
// centroids are indexed once into per-space postings lists, the corpus
// IDF tables are flattened into ID-addressed arrays, and every
// per-request buffer lives in pooled scratch. A classify is then
// tokenized terms → packed TF-IDF vectors (built in scratch) → postings
// dot products → Equation 3 — with zero heap allocations at steady
// state (pinned by TestClassifyZeroAlloc).
//
// The fast path is bit-identical to the generic Embed → CompilePoint →
// Sim pipeline: the scratch embedder replicates vector.TFIDF's exact
// weight expression and vector.CompileLookup's sorted-ID norm sum, and
// scoring reuses the same postings + CosineDot machinery the clustering
// kernels are pinned against.
type classifyEngine struct {
	k       int
	feats   Features
	c1, c2  float64
	uniform bool
	pc, fc  *spaceIndex
	pool    sync.Pool // *classifyScratch
}

// spaceIndex is one feature space's frozen serve-side state.
type spaceIndex struct {
	dict *vector.Dict
	// idf is the corpus IDF table addressed by term ID — the map-free
	// equivalent of DocFreq.IDF for every interned term.
	idf  []float64
	post *vector.Postings
}

func newSpaceIndex(d *vector.Dict, df *vector.DocFreq, cents []vector.Compiled) *spaceIndex {
	idf := make([]float64, d.Len())
	for id := range idf {
		idf[id] = df.IDF(d.Term(uint32(id)))
	}
	return &spaceIndex{dict: d, idf: idf, post: vector.NewPostings(cents)}
}

// classifyScratch is one request's working memory.
type classifyScratch struct {
	pc, fc               termAcc
	sims, simsPC, simsFC []float64
}

// termAcc accumulates one feature space's term statistics into dense
// vocabulary-sized arrays and packs them into a sorted compiled vector,
// reusing every buffer across requests.
type termAcc struct {
	tf, loc []float64
	touched []uint32
	ids     []uint32
	weights []float64
}

// embed builds the packed TF-IDF query vector for one feature space.
// The weight of each kept term is computed with vector.TFIDF's exact
// expression (avgLoc := locSum/tf; w := avgLoc * tf * idf) and the norm
// with vector.CompileLookup's sorted-ID summation, so the result equals
// CompileLookup(TFIDF(terms, df, uniform), dict) bit for bit. Terms the
// dictionary has never interned, or whose IDF is zero, are skipped —
// the same set both reference steps drop between them.
func (a *termAcc) embed(terms []vector.WeightedTerm, sp *spaceIndex, uniform bool) vector.Compiled {
	for _, wt := range terms {
		id, ok := sp.dict.ID(wt.Term)
		if !ok || sp.idf[id] == 0 {
			continue
		}
		if a.tf[id] == 0 {
			a.touched = append(a.touched, id)
		}
		a.tf[id]++
		if uniform {
			a.loc[id]++
		} else {
			a.loc[id] += wt.Loc
		}
	}
	slices.Sort(a.touched)
	a.ids = a.ids[:0]
	a.weights = a.weights[:0]
	var sum float64
	for _, id := range a.touched {
		f := a.tf[id]
		avgLoc := a.loc[id] / f
		w := avgLoc * f * sp.idf[id]
		a.ids = append(a.ids, id)
		a.weights = append(a.weights, w)
		sum += w * w
		a.tf[id], a.loc[id] = 0, 0
	}
	a.touched = a.touched[:0]
	return vector.Compiled{IDs: a.ids, Weights: a.weights, Norm: math.Sqrt(sum)}
}

// engine lazily builds the serve path on first use, so a classifier
// built per epoch costs nothing until it serves.
func (c *Classifier) engine() *classifyEngine {
	c.engineOnce.Do(func() {
		c.eng = buildClassifyEngine(c.model, c.centroids)
	})
	return c.eng
}

func buildClassifyEngine(m *Model, centroids []cluster.Point) *classifyEngine {
	cp := m.compiled
	pcs, fcs := m.packedCentroids(centroids)
	c1, c2 := m.weights()
	e := &classifyEngine{
		k:       len(centroids),
		feats:   m.Features,
		c1:      c1,
		c2:      c2,
		uniform: m.Uniform,
		pc:      newSpaceIndex(cp.pcDict, m.PCDF, pcs),
		fc:      newSpaceIndex(cp.fcDict, m.FCDF, fcs),
	}
	e.pool.New = func() any { return e.newScratch() }
	return e
}

func (e *classifyEngine) newScratch() *classifyScratch {
	return &classifyScratch{
		pc: termAcc{
			tf:  make([]float64, e.pc.dict.Len()),
			loc: make([]float64, e.pc.dict.Len()),
		},
		fc: termAcc{
			tf:  make([]float64, e.fc.dict.Len()),
			loc: make([]float64, e.fc.dict.Len()),
		},
		sims:   make([]float64, e.k),
		simsPC: make([]float64, e.k),
		simsFC: make([]float64, e.k),
	}
}

// score fills sc.sims with the Equation 3 similarity of a page with FC
// terms fc and PC terms pc to every centroid, restricted to the active
// feature spaces — the same values, bit for bit, as model.Sim against
// each centroid.
func (e *classifyEngine) score(sc *classifyScratch, fc, pc []vector.WeightedTerm) []float64 {
	sims := sc.sims
	switch e.feats {
	case FCOnly:
		q := sc.fc.embed(fc, e.fc, e.uniform)
		e.fc.post.Dots(q, sims)
		for c := range sims {
			sims[c] = vector.CosineDot(sims[c], q.Norm, e.fc.post.Norm(c))
		}
	case PCOnly:
		q := sc.pc.embed(pc, e.pc, e.uniform)
		e.pc.post.Dots(q, sims)
		for c := range sims {
			sims[c] = vector.CosineDot(sims[c], q.Norm, e.pc.post.Norm(c))
		}
	default:
		qp := sc.pc.embed(pc, e.pc, e.uniform)
		qf := sc.fc.embed(fc, e.fc, e.uniform)
		e.pc.post.Dots(qp, sc.simsPC)
		e.fc.post.Dots(qf, sc.simsFC)
		for c := range sims {
			sims[c] = (e.c1*vector.CosineDot(sc.simsPC[c], qp.Norm, e.pc.post.Norm(c)) +
				e.c2*vector.CosineDot(sc.simsFC[c], qf.Norm, e.fc.post.Norm(c))) / (e.c1 + e.c2)
		}
	}
	return sims
}
