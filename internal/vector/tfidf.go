package vector

import (
	"math"
	"sync"
)

// WeightedTerm is a term occurrence annotated with the LOC factor of the
// place it was found (title, form body, option tag, page body, ...). The
// paper's Equation 1 multiplies TF by a small integer LOC_i; we accept a
// float so ablations (uniform weights) are a parameter, not a code change.
type WeightedTerm struct {
	Term string
	Loc  float64
}

// DocFreq accumulates document frequencies over a corpus so IDF can be
// computed. It is built once per corpus per feature space.
type DocFreq struct {
	n  int            // number of documents seen
	df map[string]int // term -> number of docs containing it
}

// NewDocFreq returns an empty document-frequency table.
func NewDocFreq() *DocFreq {
	return &DocFreq{df: make(map[string]int)}
}

// seenPool recycles the per-document dedup maps of AddDoc and
// AddDocWeighted — ingest calls them for every appended page, and a
// fresh map per page was a measurable slice of the hot path's garbage.
var seenPool = sync.Pool{New: func() any { return make(map[string]bool, 64) }}

// AddDoc records one document's distinct terms.
func (d *DocFreq) AddDoc(terms []string) {
	d.n++
	seen := seenPool.Get().(map[string]bool)
	for _, t := range terms {
		if !seen[t] {
			seen[t] = true
			d.df[t]++
		}
	}
	clear(seen)
	seenPool.Put(seen)
}

// AddDocWeighted records one document given weighted occurrences.
func (d *DocFreq) AddDocWeighted(terms []WeightedTerm) {
	d.n++
	seen := seenPool.Get().(map[string]bool)
	for _, wt := range terms {
		if !seen[wt.Term] {
			seen[wt.Term] = true
			d.df[wt.Term]++
		}
	}
	clear(seen)
	seenPool.Put(seen)
}

// N returns the number of documents recorded.
func (d *DocFreq) N() int { return d.n }

// DF returns the document frequency of term t.
func (d *DocFreq) DF(t string) int { return d.df[t] }

// IDF returns log(N/n_i), the paper's inverse document frequency. Terms
// never seen get IDF 0 (they carry no corpus-level evidence); the log is
// natural, matching the standard IR formulation the paper cites.
func (d *DocFreq) IDF(t string) float64 {
	ni := d.df[t]
	if ni == 0 || d.n == 0 {
		return 0
	}
	return math.Log(float64(d.n) / float64(ni))
}

// Vocabulary returns the number of distinct terms recorded.
func (d *DocFreq) Vocabulary() int { return len(d.df) }

// Each calls fn for every recorded term and its document frequency, in
// map order.
func (d *DocFreq) Each(fn func(term string, df int)) {
	for t, c := range d.df {
		fn(t, c)
	}
}

// Snapshot exports the table's state for persistence. The returned map
// is a copy.
func (d *DocFreq) Snapshot() (n int, df map[string]int) {
	cp := make(map[string]int, len(d.df))
	for t, c := range d.df {
		cp[t] = c
	}
	return d.n, cp
}

// Clone returns an independent copy of the table, so an incremental
// corpus update can accumulate new documents without mutating the table
// a served model snapshot still reads.
func (d *DocFreq) Clone() *DocFreq {
	n, df := d.Snapshot()
	return &DocFreq{n: n, df: df}
}

// Merge folds another table's counts into this one — the reduction step
// of sharded document-frequency accumulation. Counts are integers, so
// the merged table is identical to one built serially over the
// concatenated shards regardless of merge order.
func (d *DocFreq) Merge(o *DocFreq) {
	d.n += o.n
	for t, c := range o.df {
		d.df[t] += c
	}
}

// RestoreDocFreq rebuilds a table from a Snapshot or a decoded
// snapshot. The table takes ownership of df.
func RestoreDocFreq(n int, df map[string]int) *DocFreq {
	if df == nil {
		df = make(map[string]int)
	}
	return &DocFreq{n: n, df: df}
}

// TFIDF builds the weighted vector for one document:
//
//	w_i = LOC_i * TF_i * log(N/n_i)            (paper Equation 1)
//
// where LOC_i is the average location factor of the term's occurrences in
// this document (occurrences of the same term in differently-weighted
// locations contribute proportionally). When uniform is true, LOC is
// forced to 1 for every term — the Section 4.4 ablation.
func TFIDF(terms []WeightedTerm, df *DocFreq, uniform bool) Vector {
	agg := tfidfPool.Get().(map[string]tfLoc)
	for _, wt := range terms {
		a := agg[wt.Term]
		a.tf++
		if uniform {
			a.loc++
		} else {
			a.loc += wt.Loc
		}
		agg[wt.Term] = a
	}
	v := make(Vector, len(agg))
	for t, a := range agg {
		idf := df.IDF(t)
		if idf == 0 {
			continue // term in every document (or unknown): no signal
		}
		avgLoc := a.loc / a.tf
		v[t] = avgLoc * a.tf * idf
	}
	clear(agg)
	tfidfPool.Put(agg)
	return v
}

// tfLoc is TFIDF's per-term aggregation state: the term frequency and
// the summed location factors of its occurrences.
type tfLoc struct {
	tf, loc float64
}

// tfidfPool recycles the per-call aggregation map; only the result
// vector outlives a call, and embedding is sharded across workers,
// hence a Pool rather than a single buffer.
var tfidfPool = sync.Pool{New: func() any { return make(map[string]tfLoc, 64) }}
