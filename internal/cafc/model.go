// Package cafc implements the paper's contribution: the form-page model
// FP(PC, FC) with its combined similarity measure (Equations 1-3), the
// CAFC-C clustering algorithm (Algorithm 1), hub-cluster seed selection
// (Algorithm 3 / SelectHubClusters) and CAFC-CH (Algorithm 2), plus the
// HAC-based variants evaluated in Section 4.3.
package cafc

import (
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

// Page is one form page of the model: its URL and the term record its
// packed TF-IDF vectors were embedded from. The vectors themselves live
// only in the model's packed engine.
type Page struct {
	URL string
	// Rec is the page's term record. Every page has one: its packed
	// vectors, search entry and snapshot bytes all come from it.
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
	// FCDF and PCDF are the corpus document-frequency tables: pages
	// embed against them, and pages outside the corpus are classified
	// against them.
	FCDF, PCDF *vector.DocFreq
	// Uniform records whether LOC factors were suppressed at build time.
	Uniform bool
	// Metrics, when non-nil, receives model-level telemetry (term-record
	// and embed timing, vocabulary sizes) and is threaded into every
	// clustering run over this model, so k-means/HAC convergence lands
	// in the same registry. Nil disables all instrumentation; results
	// are identical either way.
	Metrics *obs.Registry
	// Workers caps the worker pool for the build phases (document
	// frequency counting, term records, embedding); <= 0 means one per
	// CPU. Results are bit-identical for every worker count —
	// shards write disjoint slots and every reduction runs serially in
	// shard order — so this is purely a wall-clock knob.
	Workers int

	// compiled is the packed engine every Space method runs on: the
	// only place a page's vectors are held. Every constructor (BuildWith,
	// DecodeState) and every mutator (AppendPages, ReembedAll) leaves it
	// current.
	compiled *compiledPages
}

// point is a map-space pair of vectors: an anchor-enriched centroid, or
// a page embedded outside the model (CompileVectors). Sim packs it
// against the model's dictionaries when it meets the engine.
type point struct {
	pc, fc vector.Vector
}

// compiledPages is the packed form of the model: one term dictionary
// and one sorted (termID, weight) vector per page, per feature space.
// Pages are only ever appended to it (or it is rebuilt whole), and the
// parallel clustering kernels share it read-only.
type compiledPages struct {
	pcDict, fcDict *vector.Dict
	pc, fc         []vector.Compiled
}

func newCompiledPages() *compiledPages {
	return &compiledPages{pcDict: vector.NewDict(), fcDict: vector.NewDict()}
}

// cpoint is the packed two-space representative.
type cpoint struct {
	pc, fc vector.Compiled
}

// Build computes the form-page model for a set of extracted form pages:
// document frequencies are accumulated per feature space over the corpus,
// then each page gets its term record and, packed from it, its
// location-weighted TF-IDF vectors (Equation 1).
// uniform=true forces LOC_i = 1 (the Section 4.4 ablation).
func Build(fps []*form.FormPage, uniform bool) *Model {
	return BuildMetrics(fps, uniform, nil)
}

// BuildMetrics is Build with a metrics registry attached before the
// model is constructed, so the document-frequency accumulation, term
// record and embed phases are all timed. A nil registry is exactly
// Build.
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
// phases — document-frequency counting, term records, embedding into the
// packed engine — shard across Workers with the cluster package's
// fan-out contract: workers write disjoint, index-addressed slots, and
// the only cross-shard reduction (merging per-shard DF tables) runs
// serially in shard order over integer counts, so it is
// order-independent and the build is bit-identical for every worker
// count. The model build costs more wall-clock than clustering itself
// (BENCH_scale.json: 1.8–2.6× the exhaustive k-means run at 5k–50k
// pages), which is why it is the layer that shards.
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
		Uniform: o.Uniform, Metrics: reg, Workers: o.Workers,
		compiled: newCompiledPages()}
	m.Pages = make([]*Page, n)
	m.addRecords(fps, 0)
	if reg != nil {
		t0 = time.Now()
	}
	m.embed(0)
	if reg != nil {
		vector.ObserveCompile(reg, m.compiled.pcDict, m.compiled.fcDict, time.Since(t0))
	}
	return m
}

// addRecords fills m.Pages[start:] with fps' pages and their term
// records, sharded into index-addressed slots.
func (m *Model) addRecords(fps []*form.FormPage, start int) {
	var t0 time.Time
	if m.Metrics != nil {
		t0 = time.Now()
	}
	cluster.ParallelRange(len(fps), m.Workers, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			m.Pages[start+i] = &Page{URL: fps[i].URL, Rec: NewRecord(fps[i])}
		}
	})
	if m.Metrics != nil {
		// Each page gets a record in both feature spaces.
		vector.ObserveTFIDFBuild(m.Metrics, 2*len(fps), time.Since(t0))
	}
}

// embed packs pages [start, len(m.Pages)) into the engine from their
// term records under the model's DF tables: the one embed path of
// BuildWith, AppendPages and ReembedAll.
//
// Phase 1 (serial) interns, page by page in order, each term that
// carries weight (IDF ≠ 0) and is new to the dictionary, in the
// record's term order. That is the lexicographic order vector.Compile
// interns a map vector's new terms in, so IDs are deterministic across
// runs and equal to compiling each page's TF-IDF map in page order.
// Phase 2 (sharded) packs each page against the frozen dictionaries
// into its own slot: every weighted term's (ID, TermStat.Weight),
// sorted by ID, with the norm summed in ID order — vector.CompileLookup
// of the page's TF-IDF map bit for bit, for any worker count.
func (m *Model) embed(start int) {
	cp := m.compiled
	n := len(m.Pages)
	for _, p := range m.Pages[start:] {
		internRecord(p.Rec.PC, m.PCDF, cp.pcDict)
		internRecord(p.Rec.FC, m.FCDF, cp.fcDict)
	}
	cp.pc = append(cp.pc, make([]vector.Compiled, n-start)...)
	cp.fc = append(cp.fc, make([]vector.Compiled, n-start)...)
	cluster.ParallelRange(n-start, m.Workers, func(lo, hi, _ int) {
		var pk vector.Packer
		for i := start + lo; i < start+hi; i++ {
			r := m.Pages[i].Rec
			cp.pc[i] = packRecord(&pk, r.PC, m.PCDF, cp.pcDict, m.Uniform)
			cp.fc[i] = packRecord(&pk, r.FC, m.FCDF, cp.fcDict, m.Uniform)
		}
	})
}

// internRecord interns, in record order, each term of one record space
// that d lacks and that carries weight under df.
func internRecord(stats []TermStat, df *vector.DocFreq, d *vector.Dict) {
	for _, s := range stats {
		if _, ok := d.ID(s.Term); !ok && df.IDF(s.Term) != 0 {
			d.Intern(s.Term)
		}
	}
}

// packRecord packs one record space against d: each term with IDF ≠ 0,
// weighted as TermStat.Weight. A term d lacks is left out, as
// CompileLookup leaves it out; for a model page phase 1 has interned
// every weighted term.
func packRecord(pk *vector.Packer, stats []TermStat, df *vector.DocFreq, d *vector.Dict, uniform bool) vector.Compiled {
	for _, s := range stats {
		idf := df.IDF(s.Term)
		if idf == 0 {
			continue
		}
		if id, ok := d.ID(s.Term); ok {
			pk.Add(id, s.Weight(idf, uniform))
		}
	}
	return pk.Pack()
}

// CompileVectors packs a page's TF-IDF vectors built outside the model
// (vector.TFIDF against the model's DF tables, say) against its
// dictionaries, dropping terms they lack, into a point that compares
// with the model's own through Sim.
func (m *Model) CompileVectors(pc, fc vector.Vector) cluster.Point {
	return m.compilePoint(point{pc: pc, fc: fc})
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
