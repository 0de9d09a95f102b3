package cafc

import (
	"time"

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
// new page gets its term record and is embedded against the updated
// tables into the existing dictionaries (which only grow, so previously
// packed vectors stay valid).
//
// The per-page phases shard across m.Workers with the same discipline
// as BuildWith and are bit-identical to the serial path for every
// worker count: DF absorption is serial (order-dependent map updates),
// records build in parallel into index-addressed slots, and embed
// interns serially in page order before it packs in parallel.
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
	m.addRecords(fps, start)
	m.embed(start)
	if m.Metrics != nil {
		vector.ObserveTFIDFBuild(m.Metrics, 2*len(fps), time.Since(t0))
	}
}

// ReembedAll re-embeds every page from its term record against the
// current document-frequency tables into a fresh engine, erasing the
// stale-IDF drift AppendPages accumulates. A model grown page by page
// and then reembedded equals one built in a single Build call over the
// same documents, dictionaries included. The embed shards across
// m.Workers as BuildWith's does.
func (m *Model) ReembedAll() {
	var t0 time.Time
	if m.Metrics != nil {
		t0 = time.Now()
	}
	m.compiled = newCompiledPages()
	m.embed(0)
	if m.Metrics != nil {
		vector.ObserveCompile(m.Metrics, m.compiled.pcDict, m.compiled.fcDict, time.Since(t0))
	}
}
