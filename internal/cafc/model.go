// Package cafc implements the paper's contribution: the form-page model
// FP(PC, FC) with its combined similarity measure (Equations 1-3), the
// CAFC-C clustering algorithm (Algorithm 1), hub-cluster seed selection
// (Algorithm 3 / SelectHubClusters) and CAFC-CH (Algorithm 2), plus the
// HAC-based variants evaluated in Section 4.3.
package cafc

import (
	"sort"
	"time"

	"cafc/internal/cluster"
	"cafc/internal/form"
	"cafc/internal/obs"
	"cafc/internal/vector"
)

// Features selects which feature spaces participate in the similarity —
// the FC / PC / FC+PC configurations of the experimental evaluation.
type Features int

const (
	// FCPC combines form and page contents (Equation 3) — the default.
	FCPC Features = iota
	// FCOnly uses form contents alone.
	FCOnly
	// PCOnly uses page contents alone.
	PCOnly
)

// String names the configuration as the paper's figures do.
func (f Features) String() string {
	switch f {
	case FCOnly:
		return "FC"
	case PCOnly:
		return "PC"
	case FCPC:
		return "FC+PC"
	}
	return "unknown"
}

// Page is one form page in model space: its URL, the TF-IDF vectors of
// both feature spaces, and the term record they were embedded from.
type Page struct {
	URL string
	FC  vector.Vector
	PC  vector.Vector
	// Rec is the page's term record. It is nil only for pages loaded from
	// a version 1 or 2 snapshot, which stored vectors alone.
	Rec *Record
}

// Model holds a corpus of form pages embedded in the two-space vector
// model, and implements cluster.Space so the generic algorithms can
// cluster it.
type Model struct {
	Pages []*Page
	// C1, C2 weigh the PC and FC cosine similarities in Equation 3. The
	// paper sets C1 = C2 = 1.
	C1, C2 float64
	// Features selects the active feature spaces.
	Features Features
	// FCDF and PCDF are the corpus document-frequency tables, retained so
	// pages outside the corpus can be embedded (Embed) and classified.
	FCDF, PCDF *vector.DocFreq
	// Uniform records whether LOC factors were suppressed at build time.
	Uniform bool
	// Metrics, when non-nil, receives model-level telemetry (TF-IDF
	// build and engine-compile timing, vocabulary sizes) and is threaded
	// into every clustering run over this model, so k-means/HAC
	// convergence lands in the same registry. Nil disables all
	// instrumentation; results are identical either way.
	Metrics *obs.Registry
	// Workers caps the worker pool for the build phases (document
	// frequency counting, TF-IDF embedding, engine compile); <= 0 means
	// one per CPU. Results are bit-identical for every worker count —
	// shards write disjoint slots and every reduction runs serially in
	// shard order — so this is purely a wall-clock knob.
	Workers int

	// compiled is the packed engine every Space method runs on. Every
	// constructor (BuildWith, LoadCorpus) and every mutator (AppendPages,
	// ReembedAll) leaves it current; code that appends Pages by hand
	// must call EnsureCompiled before using the model as a Space.
	compiled *compiledPages
}

// point is the map-space representative of an external page (PointOf)
// or an anchor-enriched centroid; Sim and CompilePoint pack it against
// the model's dictionaries when it meets the engine.
type point struct {
	pc, fc vector.Vector
}

// compiledPages is the packed form of the model: one term dictionary
// and one sorted (termID, weight) vector per page, per feature space.
// It is built once (EnsureCompiled) and read-only afterwards, so the
// parallel clustering kernels can share it freely.
type compiledPages struct {
	pcDict, fcDict *vector.Dict
	pc, fc         []vector.Compiled
}

// cpoint is the packed two-space representative.
type cpoint struct {
	pc, fc vector.Compiled
}

// Build computes the form-page model for a set of extracted form pages:
// document frequencies are accumulated per feature space over the corpus,
// then each page gets its location-weighted TF-IDF vectors (Equation 1).
// uniform=true forces LOC_i = 1 (the Section 4.4 ablation).
func Build(fps []*form.FormPage, uniform bool) *Model {
	return BuildMetrics(fps, uniform, nil)
}

// BuildMetrics is Build with a metrics registry attached before the
// model is constructed, so the document-frequency accumulation, TF-IDF
// embedding and engine-compile phases are all timed. A nil registry is
// exactly Build.
func BuildMetrics(fps []*form.FormPage, uniform bool, reg *obs.Registry) *Model {
	return BuildWith(fps, BuildOpts{Uniform: uniform, Metrics: reg})
}

// BuildOpts configures BuildWith.
type BuildOpts struct {
	// Uniform forces LOC_i = 1 (the Section 4.4 ablation).
	Uniform bool
	// Metrics receives build telemetry; nil disables it.
	Metrics *obs.Registry
	// Workers caps the build worker pool; <= 0 means one per CPU, 1
	// forces the serial reference path. Bit-identical for every value.
	Workers int
}

// BuildWith is the parameterized model build. The three corpus-sized
// phases — document-frequency counting, TF-IDF embedding, engine
// compile — shard across Workers with the cluster package's fan-out
// contract: workers write disjoint, index-addressed slots, and the only
// cross-shard reduction (merging per-shard DF tables) runs serially in
// shard order over integer counts, so it is order-independent and the
// build is bit-identical for every worker count. The model build
// dominates end-to-end wall-clock over clustering itself (see
// BENCH_scale.json: ~14× the assignment cost at 5k pages), which is why
// it is the layer that shards.
func BuildWith(fps []*form.FormPage, o BuildOpts) *Model {
	reg := o.Metrics
	n := len(fps)
	shards := cluster.MaxShards(n, o.Workers)

	var t0 time.Time
	dfHist := reg.Histogram("model_df_build_seconds", obs.DurationBuckets)
	if dfHist != nil {
		t0 = time.Now()
	}
	fcParts := make([]*vector.DocFreq, shards)
	pcParts := make([]*vector.DocFreq, shards)
	cluster.ParallelRange(n, o.Workers, func(start, end, shard int) {
		fc, pc := vector.NewDocFreq(), vector.NewDocFreq()
		for _, fp := range fps[start:end] {
			fc.AddDocWeighted(fp.FCTerms)
			pc.AddDocWeighted(fp.PCTerms)
		}
		fcParts[shard], pcParts[shard] = fc, pc
	})
	fcDF := vector.NewDocFreq()
	pcDF := vector.NewDocFreq()
	for s := 0; s < shards; s++ {
		if fcParts[s] != nil {
			fcDF.Merge(fcParts[s])
			pcDF.Merge(pcParts[s])
		}
	}
	dfHist.ObserveSince(t0)
	vector.ObserveVocabulary(reg, "fc", fcDF)
	vector.ObserveVocabulary(reg, "pc", pcDF)

	m := &Model{C1: 1, C2: 1, Features: FCPC, FCDF: fcDF, PCDF: pcDF,
		Uniform: o.Uniform, Metrics: reg, Workers: o.Workers}
	if reg != nil {
		t0 = time.Now()
	}
	// The DF tables are frozen now, so every page embeds independently
	// into its own slot.
	m.Pages = make([]*Page, n)
	cluster.ParallelRange(n, o.Workers, func(start, end, shard int) {
		for i := start; i < end; i++ {
			m.Pages[i] = m.Embed(fps[i])
		}
	})
	if reg != nil {
		// Each page embeds into both feature spaces.
		vector.ObserveTFIDFBuild(reg, 2*n, time.Since(t0))
	}
	m.EnsureCompiled()
	return m
}

// EnsureCompiled builds the packed representation of every page. Build
// and LoadCorpus call it; call it again after appending Pages by hand.
// It must not race with the clustering kernels — compile first, then
// cluster. A no-op when the engine is already current.
func (m *Model) EnsureCompiled() {
	if m.compiled != nil && len(m.compiled.pc) == len(m.Pages) {
		return
	}
	var t0 time.Time
	if m.Metrics != nil {
		t0 = time.Now()
	}
	// Two-phase compile. Phase 1 (serial): intern every term, walking
	// pages in order and each page's terms in sorted order — a pure
	// string-to-ID pass with no float work, so it stays cheap, and the
	// sort makes ID assignment deterministic across runs (a map-order
	// walk would reshuffle IDs, and with them the norm summation order,
	// every run). Phase 2 (sharded): pack each page against the frozen
	// dictionaries into its own slot. The dictionaries are complete
	// after phase 1, so CompileLookup drops nothing, and a fixed
	// dictionary makes every page's packed form independent of every
	// other page — bit-identical for any worker count.
	cp := &compiledPages{pcDict: vector.NewDict(), fcDict: vector.NewDict()}
	cp.pc = make([]vector.Compiled, len(m.Pages))
	cp.fc = make([]vector.Compiled, len(m.Pages))
	var terms []string
	for _, p := range m.Pages {
		terms = internSorted(p.PC, cp.pcDict, terms)
		terms = internSorted(p.FC, cp.fcDict, terms)
	}
	cluster.ParallelRange(len(m.Pages), m.Workers, func(start, end, shard int) {
		for i := start; i < end; i++ {
			cp.pc[i] = vector.CompileLookup(m.Pages[i].PC, cp.pcDict)
			cp.fc[i] = vector.CompileLookup(m.Pages[i].FC, cp.fcDict)
		}
	})
	m.compiled = cp
	if m.Metrics != nil {
		vector.ObserveCompile(m.Metrics, cp.pcDict, cp.fcDict, time.Since(t0))
	}
}

// internSorted interns v's terms into d in lexicographic order, reusing
// buf as scratch (returned possibly grown). This is the deterministic
// ID-assignment discipline the scratch compile (EnsureCompiled) and the
// incremental append share: page by page in order, each page's terms
// sorted — exactly the order vector.Compile would intern them — so
// compiled IDs are identical no matter which path built the model.
func internSorted(v vector.Vector, d *vector.Dict, buf []string) []string {
	// Only terms the dictionary has never seen need the sorted-intern
	// discipline: interning a known term is an ID no-op, and the new
	// terms' relative lexicographic order — which is all that determines
	// their IDs — is the same whether they are sorted alone or inside
	// the page's full term set. In steady state (saturated vocabulary)
	// this skips the sort almost entirely.
	buf = buf[:0]
	for t := range v {
		if _, ok := d.ID(t); !ok {
			buf = append(buf, t)
		}
	}
	if len(buf) == 0 {
		return buf
	}
	sort.Strings(buf)
	for _, t := range buf {
		d.Intern(t)
	}
	return buf
}

// Embed projects a form page into the model's TF-IDF spaces using the
// corpus document frequencies. Terms unseen in the corpus get zero weight
// (they carry no corpus-level evidence). The page is NOT added to the
// model.
func (m *Model) Embed(fp *form.FormPage) *Page {
	return m.EmbedRecord(fp.URL, NewRecord(fp))
}

// EmbedRecord is Embed from a page's term record; the weights are
// bit-identical to embedding the form page it was built from.
func (m *Model) EmbedRecord(url string, r *Record) *Page {
	return &Page{
		URL: url,
		FC:  tfidf(r.FC, m.FCDF, m.Uniform),
		PC:  tfidf(r.PC, m.PCDF, m.Uniform),
		Rec: r,
	}
}

// PointOf returns the cluster.Point of an arbitrary embedded page, so
// external pages can be compared against model centroids.
func (m *Model) PointOf(p *Page) cluster.Point {
	return point{pc: p.PC, fc: p.FC}
}

// WithFeatures returns a shallow copy of the model restricted to the given
// feature configuration. Vectors are shared, so the copy is cheap.
func (m *Model) WithFeatures(f Features) *Model {
	c := *m
	c.Features = f
	return &c
}

// Len implements cluster.Space.
func (m *Model) Len() int { return len(m.Pages) }

// Point implements cluster.Space with packed points, so every
// downstream Sim is a merge join.
func (m *Model) Point(i int) cluster.Point {
	return cpoint{pc: m.compiled.pc[i], fc: m.compiled.fc[i]}
}

// Centroid implements cluster.Space: the per-space term-weight average of
// the members (Equation 4). Members are summed into dense
// vocabulary-sized accumulators and packed back, O(total nnz).
func (m *Model) Centroid(members []int) cluster.Point {
	return m.CentroidWith(members, nil, nil)
}

// CentroidWith is Centroid with caller-owned accumulators for the PC
// and FC spaces, so a batch caller (the live mini-batch refresh touches
// several centroids per epoch) pays the two vocabulary-sized
// allocations once instead of per centroid. Nil accumulators allocate
// fresh ones — exactly Centroid. The result is bit-identical either
// way: Accumulator.Compile resets state, and term sums accumulate in
// the same member order.
func (m *Model) CentroidWith(members []int, pacc, facc *vector.Accumulator) cluster.Point {
	cp := m.compiled
	if pacc == nil {
		pacc = vector.NewAccumulator(cp.pcDict.Len())
	}
	if facc == nil {
		facc = vector.NewAccumulator(cp.fcDict.Len())
	}
	for _, mem := range members {
		pacc.Add(cp.pc[mem])
		facc.Add(cp.fc[mem])
	}
	f := 0.0
	if len(members) > 0 {
		f = 1 / float64(len(members))
	}
	return cpoint{pc: pacc.Compile(f), fc: facc.Compile(f)}
}

// CentroidTopTerms returns the top-n PC-space terms of the members'
// mean vector on the compiled engine, without materializing a map
// vector — the cluster-labeling hot path (the map detour used to cost
// ~38% of live-publish CPU). An empty member set has no terms. The
// accumulator is optional scratch, as in CentroidWith.
//
// Bit-identity with vector.Centroid(pcs).TopTerms(n): the dense
// accumulator adds members in the same order and applies the same
// final 1/n scale, so every term weight is float-identical, and
// Compiled.TopTerms breaks weight ties on the term string exactly as
// Vector.TopTerms does.
func (m *Model) CentroidTopTerms(members []int, n int, acc *vector.Accumulator) []string {
	if len(members) == 0 {
		return nil
	}
	cp := m.compiled
	if acc == nil {
		acc = vector.NewAccumulator(cp.pcDict.Len())
	}
	for _, mem := range members {
		acc.Add(cp.pc[mem])
	}
	return acc.Compile(1/float64(len(members))).TopTerms(cp.pcDict, n)
}

// centroidMaps is the map-based centroid, kept for anchor-text
// enrichment, which post-processes the centroid's term maps.
func (m *Model) centroidMaps(members []int) point {
	pcs := make([]vector.Vector, len(members))
	fcs := make([]vector.Vector, len(members))
	for i, mem := range members {
		pcs[i] = m.Pages[mem].PC
		fcs[i] = m.Pages[mem].FC
	}
	return point{pc: vector.Centroid(pcs), fc: vector.Centroid(fcs)}
}

// CompilePoint converts a map-space point (PointOf, or a hand-built
// centroid) to the packed representation, so repeated Sim calls against
// compiled points skip the per-call conversion. Packed points pass
// through unchanged.
func (m *Model) CompilePoint(p cluster.Point) cluster.Point {
	return m.packed(p)
}

// packed returns p as a packed point, compiling a map-space point on
// the fly.
func (m *Model) packed(p cluster.Point) cpoint {
	if cp, ok := p.(cpoint); ok {
		return cp
	}
	return m.compilePoint(p.(point))
}

// packedCentroids splits centroids into per-space packed vectors — the
// input of the postings indexes NewCentroidIndex and the classifier
// build.
func (m *Model) packedCentroids(centroids []cluster.Point) (pcs, fcs []vector.Compiled) {
	pcs = make([]vector.Compiled, len(centroids))
	fcs = make([]vector.Compiled, len(centroids))
	for i, c := range centroids {
		p := m.packed(c)
		pcs[i], fcs[i] = p.pc, p.fc
	}
	return pcs, fcs
}

// weights returns the Equation 3 space weights C1, C2, reading the
// all-zero pair as the paper's C1 = C2 = 1.
func (m *Model) weights() (c1, c2 float64) {
	if m.C1 == 0 && m.C2 == 0 {
		return 1, 1
	}
	return m.C1, m.C2
}

// compilePoint packs a map point against the engine's dictionaries,
// dropping terms the corpus has never weighted. Embedding guarantees
// such terms carry zero weight (IDF 0), so nothing is lost.
func (m *Model) compilePoint(p point) cpoint {
	cp := m.compiled
	return cpoint{
		pc: vector.CompileLookup(p.pc, cp.pcDict),
		fc: vector.CompileLookup(p.fc, cp.fcDict),
	}
}

// Sim implements cluster.Space with Equation 3:
//
//	sim(FP1, FP2) = (C1·cos(PC1, PC2) + C2·cos(FC1, FC2)) / (C1 + C2)
//
// restricted to the active feature spaces. Packed and map points mix
// freely; a map point meeting a packed one is packed on the fly. Two
// map points (anchor-enriched seed candidates) compare on the map path.
func (m *Model) Sim(a, b cluster.Point) float64 {
	ca, aok := a.(cpoint)
	cb, bok := b.(cpoint)
	if aok || bok {
		if !aok {
			ca = m.compilePoint(a.(point))
		}
		if !bok {
			cb = m.compilePoint(b.(point))
		}
		switch m.Features {
		case FCOnly:
			return vector.CosineCompiled(ca.fc, cb.fc)
		case PCOnly:
			return vector.CosineCompiled(ca.pc, cb.pc)
		default:
			c1, c2 := m.weights()
			return (c1*vector.CosineCompiled(ca.pc, cb.pc) + c2*vector.CosineCompiled(ca.fc, cb.fc)) / (c1 + c2)
		}
	}
	pa, pb := a.(point), b.(point)
	switch m.Features {
	case FCOnly:
		return vector.Cosine(pa.fc, pb.fc)
	case PCOnly:
		return vector.Cosine(pa.pc, pb.pc)
	default:
		c1, c2 := m.weights()
		return (c1*vector.Cosine(pa.pc, pb.pc) + c2*vector.Cosine(pa.fc, pb.fc)) / (c1 + c2)
	}
}

// PairSim returns the Equation 3 similarity between pages i and j.
func (m *Model) PairSim(i, j int) float64 {
	return m.Sim(m.Point(i), m.Point(j))
}

// NewCentroidIndex implements cluster.CentroidScorer for the compiled
// engine: each feature space's centroids become a term → centroid
// postings index, and Sims combines the two cosines with exactly the
// operations (and operation order) of Sim's packed Equation 3 branch,
// so the scores are bit-identical. Map-space centroids are packed
// first, exactly as Sim packs them, so the index is never nil.
func (m *Model) NewCentroidIndex(centroids []cluster.Point) cluster.CentroidIndex {
	pcs, fcs := m.packedCentroids(centroids)
	c1, c2 := m.weights()
	return &modelCentroidIndex{
		cp:    m.compiled,
		feats: m.Features,
		c1:    c1,
		c2:    c2,
		k:     len(centroids),
		pc:    vector.NewPostings(pcs),
		fc:    vector.NewPostings(fcs),
	}
}

// modelCentroidIndex scores model pages against a frozen centroid set
// through two per-space postings indexes. Immutable; safe for the
// parallel kernels.
type modelCentroidIndex struct {
	cp     *compiledPages
	feats  Features
	c1, c2 float64
	k      int
	pc, fc *vector.Postings
}

// ScratchLen implements cluster.CentroidIndex: the two-space combine
// needs one dot-product buffer per feature space.
func (ix *modelCentroidIndex) ScratchLen() int { return 2 * ix.k }

// Sims implements cluster.CentroidIndex.
func (ix *modelCentroidIndex) Sims(sims, scratch []float64, i int) {
	switch ix.feats {
	case FCOnly:
		q := ix.cp.fc[i]
		ix.fc.Dots(q, sims)
		for c := range sims {
			sims[c] = vector.CosineDot(sims[c], q.Norm, ix.fc.Norm(c))
		}
	case PCOnly:
		q := ix.cp.pc[i]
		ix.pc.Dots(q, sims)
		for c := range sims {
			sims[c] = vector.CosineDot(sims[c], q.Norm, ix.pc.Norm(c))
		}
	default:
		qp, qf := ix.cp.pc[i], ix.cp.fc[i]
		dp, df := scratch[:ix.k], scratch[ix.k:2*ix.k]
		ix.pc.Dots(qp, dp)
		ix.fc.Dots(qf, df)
		for c := range sims {
			sims[c] = (ix.c1*vector.CosineDot(dp[c], qp.Norm, ix.pc.Norm(c)) +
				ix.c2*vector.CosineDot(df[c], qf.Norm, ix.fc.Norm(c))) / (ix.c1 + ix.c2)
		}
	}
}

// SimOne implements cluster.CentroidIndex: one centroid, O(page nnz)
// via the postings' dense rows, with Sims' (and Sim's) exact combine.
func (ix *modelCentroidIndex) SimOne(_ []float64, i, c int) float64 {
	switch ix.feats {
	case FCOnly:
		q := ix.cp.fc[i]
		return vector.CosineDot(ix.fc.DotOne(q, c), q.Norm, ix.fc.Norm(c))
	case PCOnly:
		q := ix.cp.pc[i]
		return vector.CosineDot(ix.pc.DotOne(q, c), q.Norm, ix.pc.Norm(c))
	default:
		qp, qf := ix.cp.pc[i], ix.cp.fc[i]
		return (ix.c1*vector.CosineDot(ix.pc.DotOne(qp, c), qp.Norm, ix.pc.Norm(c)) +
			ix.c2*vector.CosineDot(ix.fc.DotOne(qf, c), qf.Norm, ix.fc.Norm(c))) / (ix.c1 + ix.c2)
	}
}
