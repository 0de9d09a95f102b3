package cafc

import (
	"time"

	"cafc/internal/cluster"
	"cafc/internal/form"
	"cafc/internal/vector"
)

// Clone returns a copy-on-write snapshot of the model for incremental
// growth: the page and compiled-vector slices are fresh (their immutable
// elements are shared), and the document-frequency tables and term
// dictionaries are deep-copied so AppendPages on the clone never mutates
// state a concurrently served model still reads. This is the epoch
// builder's entry point — clone the served model, append, publish.
func (m *Model) Clone() *Model {
	c := *m
	c.Pages = append([]*Page(nil), m.Pages...)
	c.FCDF = m.FCDF.Clone()
	c.PCDF = m.PCDF.Clone()
	if m.compiled != nil {
		c.compiled = &compiledPages{
			pcDict: m.compiled.pcDict.Clone(),
			fcDict: m.compiled.fcDict.Clone(),
			pc:     append([]vector.Compiled(nil), m.compiled.pc...),
			fc:     append([]vector.Compiled(nil), m.compiled.fc...),
		}
	}
	return &c
}

// AppendPages grows the model with newly extracted form pages: the
// document-frequency tables absorb the new documents first, then each
// new page is embedded against the updated tables and compiled against
// the existing dictionaries (which only grow, so previously compiled
// vectors stay valid).
//
// The per-page phases shard across m.Workers with the same discipline
// as BuildWith — and are bit-identical to the serial path for every
// worker count. DF absorption is serial (order-dependent map updates);
// embedding is pure once the tables are frozen, so pages embed in
// parallel into index-addressed slots; dictionary interning is a
// serial pass in page order with each page's new terms sorted, exactly
// the ID assignment the serial incremental vector.Compile performed;
// and the final pack (CompileLookup against the now-frozen
// dictionaries) is again per-page pure and parallel.
//
// Existing pages keep the TF-IDF weights of the corpus state they were
// embedded under — the standard incremental-indexing approximation.
// Their stale IDF drift is what the stream layer's drift detector
// watches for; ReembedAll removes it.
//
// Not safe for concurrent use with readers of this model; incremental
// writers append to a Clone and atomically publish the result.
func (m *Model) AppendPages(fps []*form.FormPage) {
	if len(fps) == 0 {
		return
	}
	var t0 time.Time
	if m.Metrics != nil {
		t0 = time.Now()
	}
	for _, fp := range fps {
		m.FCDF.AddDocWeighted(fp.FCTerms)
		m.PCDF.AddDocWeighted(fp.PCTerms)
	}
	start := len(m.Pages)
	m.Pages = append(m.Pages, make([]*Page, len(fps))...)
	cluster.ParallelRange(len(fps), m.Workers, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			m.Pages[start+i] = m.Embed(fps[i])
		}
	})
	if cp := m.compiled; cp != nil {
		var terms []string
		for _, p := range m.Pages[start:] {
			terms = internSorted(p.PC, cp.pcDict, terms)
			terms = internSorted(p.FC, cp.fcDict, terms)
		}
		cp.pc = append(cp.pc, make([]vector.Compiled, len(fps))...)
		cp.fc = append(cp.fc, make([]vector.Compiled, len(fps))...)
		cluster.ParallelRange(len(fps), m.Workers, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				p := m.Pages[start+i]
				cp.pc[start+i] = vector.CompileLookup(p.PC, cp.pcDict)
				cp.fc[start+i] = vector.CompileLookup(p.FC, cp.fcDict)
			}
		})
	} else {
		m.EnsureCompiled()
	}
	if m.Metrics != nil {
		vector.ObserveTFIDFBuild(m.Metrics, 2*len(fps), time.Since(t0))
	}
}

// ReembedAll recomputes every page's TF-IDF vectors against the current
// document-frequency tables and rebuilds the compiled representation
// from scratch, erasing the stale-IDF drift AppendPages accumulates. A
// model grown page by page and then reembedded is equivalent to one
// built in a single Build call over the same documents (term weights
// are identical; dictionary ID assignment may differ, which similarity
// is invariant to). The re-embedding shards across m.Workers — each
// page is a pure function of its retained extraction and the frozen DF
// tables — and EnsureCompiled's own two-phase compile is already
// parallel, so a full rebuild scales like the scratch build.
//
// Pages without a retained extraction result (Raw == nil, e.g. loaded
// from a snapshot) keep their stored vectors: there is nothing to
// re-derive them from.
func (m *Model) ReembedAll() {
	pages := make([]*Page, len(m.Pages))
	cluster.ParallelRange(len(m.Pages), m.Workers, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if p := m.Pages[i]; p.Raw == nil {
				pages[i] = p
			} else {
				pages[i] = m.Embed(p.Raw)
			}
		}
	})
	m.Pages = pages
	m.compiled = nil
	m.EnsureCompiled()
}
