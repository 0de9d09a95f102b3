package cafc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"cafc/internal/cluster"
	"cafc/internal/vector"
)

// Model state is the model as a snapshot stores it: its packed engine as
// it stands, so loading re-interns and re-embeds nothing. WriteState
// writes these fields, in order:
//
//	model      uniform (byte); features; C1, C2
//	PC space   DF document count N; term count T; T × (term, DF), every
//	           term of the DF table, the dictionary and the records,
//	           sorted; then the dictionary: its length D and D × term
//	           index, in ID order
//	FC space   the same
//	pages      count P, then per page: URL; record flag (byte, 1 = the
//	           page has a term record); the record when flagged: title,
//	           then per space (PC, FC) a count and count × (term index
//	           step, TF, Σloc); the packed PC and FC vectors
//	partition  flag (byte); when set: K, P × (assignment + 1), K ×
//	           (packed PC, packed FC) centroids
//
// Counts, indexes and IDs are uvarints, and a string is its length and
// its bytes. Floats are their IEEE-754 bits, 8 bytes little-endian. A
// packed vector is its length, its IDs (the first, then each one's
// distance from the one before) and its weights. A record's terms are
// sorted, so each term index is stored as its distance past the one
// before, less one. Norms are not stored: every compile path sums the
// squared weights in ID order, and DecodeState does too, so the decoded
// model equals the encoded one bit for bit.
//
// Each field goes to the section of its kind: packed-vector IDs, Σloc
// sums, weights (C1, C2 and every packed weight), and main for the rest.
// The state is the lengths of the main, ID and Σloc sections (uvarints),
// then the four sections in that order. Kept apart, each kind
// compresses on its own terms: a 2000-page snapshot is 30% smaller than
// with the fields interleaved.

// Sections of the state.
const (
	secMain = iota
	secIDs
	secLoc
	secWeight
	sections
)

// WriteState writes the model's state to w. res, when non-nil, is a
// partition of the model's pages (a live epoch's), stored after them.
func (m *Model) WriteState(w io.Writer, res *cluster.Result) error {
	if res != nil && (len(res.Assign) != len(m.Pages) || len(res.Centroids) != res.K) {
		return fmt.Errorf("partition of %d pages with %d centroids for k=%d over %d pages",
			len(res.Assign), len(res.Centroids), res.K, len(m.Pages))
	}
	cp := m.compiled
	// Size the sections up front: the floats alone are megabytes.
	e := &encoder{}
	nnz, terms := 0, 0
	for i, p := range m.Pages {
		nnz += cp.pc[i].Len() + cp.fc[i].Len()
		if p.Rec != nil {
			terms += len(p.Rec.PC) + len(p.Rec.FC)
		}
	}
	e.s[secMain] = make([]byte, 0, 3*terms+64*len(m.Pages))
	e.s[secIDs] = make([]byte, 0, 2*nnz)
	e.s[secLoc] = make([]byte, 0, 8*terms)
	e.s[secWeight] = make([]byte, 0, 8*nnz+16)
	if m.Uniform {
		e.byte(1)
	} else {
		e.byte(0)
	}
	e.uvarint(uint64(m.Features))
	e.float(secWeight, m.C1)
	e.float(secWeight, m.C2)
	pcTerms := newTermList(m.PCDF, cp.pcDict, m.Pages, func(r *Record) []TermStat { return r.PC })
	fcTerms := newTermList(m.FCDF, cp.fcDict, m.Pages, func(r *Record) []TermStat { return r.FC })
	pcTerms.encode(e, m.PCDF, cp.pcDict)
	fcTerms.encode(e, m.FCDF, cp.fcDict)

	e.uvarint(uint64(len(m.Pages)))
	for i, p := range m.Pages {
		e.str(p.URL)
		if r := p.Rec; r == nil {
			e.byte(0)
		} else {
			e.byte(1)
			e.str(r.Title)
			pcTerms.record(e, r.PC)
			fcTerms.record(e, r.FC)
		}
		e.packed(cp.pc[i])
		e.packed(cp.fc[i])
	}

	if res == nil {
		e.byte(0)
	} else {
		e.byte(1)
		e.uvarint(uint64(res.K))
		for _, a := range res.Assign {
			e.uvarint(uint64(a + 1))
		}
		for _, c := range res.Centroids {
			pc := m.packed(c)
			e.packed(pc.pc)
			e.packed(pc.fc)
		}
	}
	var lens []byte
	for _, s := range e.s[:sections-1] {
		lens = binary.AppendUvarint(lens, uint64(len(s)))
	}
	if _, err := w.Write(lens); err != nil {
		return err
	}
	for _, s := range e.s {
		if _, err := w.Write(s); err != nil {
			return err
		}
	}
	return nil
}

// encoder builds the state's sections.
type encoder struct{ s [sections][]byte }

func (e *encoder) uvarint(v uint64) { e.s[secMain] = binary.AppendUvarint(e.s[secMain], v) }
func (e *encoder) byte(v byte)      { e.s[secMain] = append(e.s[secMain], v) }

func (e *encoder) float(sec int, f float64) {
	e.s[sec] = binary.LittleEndian.AppendUint64(e.s[sec], math.Float64bits(f))
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.s[secMain] = append(e.s[secMain], s...)
}

func (e *encoder) packed(c vector.Compiled) {
	e.uvarint(uint64(len(c.IDs)))
	prev := uint32(0)
	for _, id := range c.IDs {
		e.s[secIDs] = binary.AppendUvarint(e.s[secIDs], uint64(id-prev))
		prev = id
	}
	for _, w := range c.Weights {
		e.float(secWeight, w)
	}
}

// termList is one feature space's term list: every term of its DF
// table, dictionary and page records, sorted, with each term's index in
// it. The dictionary and the records name terms by index.
type termList struct {
	terms []string
	index map[string]uint32
}

func newTermList(df *vector.DocFreq, dict *vector.Dict, pages []*Page, half func(*Record) []TermStat) *termList {
	tl := &termList{index: make(map[string]uint32, df.Vocabulary())}
	add := func(t string) {
		if _, ok := tl.index[t]; !ok {
			tl.index[t] = 0
			tl.terms = append(tl.terms, t)
		}
	}
	df.Each(func(t string, _ int) { add(t) })
	for id := 0; id < dict.Len(); id++ {
		add(dict.Term(uint32(id)))
	}
	// A page's terms all enter the DF table when it joins the model, so
	// this pass adds nothing unless a record came from elsewhere (a
	// version 1 or 2 snapshot page re-parsed from its HTML).
	for _, p := range pages {
		if p.Rec != nil {
			for _, s := range half(p.Rec) {
				add(s.Term)
			}
		}
	}
	sort.Strings(tl.terms)
	for i, t := range tl.terms {
		tl.index[t] = uint32(i)
	}
	return tl
}

// encode writes the space: the DF document count, every listed term with
// its DF, and the dictionary as term indexes in ID order.
func (tl *termList) encode(e *encoder, df *vector.DocFreq, dict *vector.Dict) {
	e.uvarint(uint64(df.N()))
	e.uvarint(uint64(len(tl.terms)))
	for _, t := range tl.terms {
		e.str(t)
		e.uvarint(uint64(df.DF(t)))
	}
	e.uvarint(uint64(dict.Len()))
	for id := 0; id < dict.Len(); id++ {
		e.uvarint(uint64(tl.index[dict.Term(uint32(id))]))
	}
}

// record writes one space of a term record: each term's index as its
// distance past the previous one's (less one), its TF and its Σloc.
func (tl *termList) record(e *encoder, stats []TermStat) {
	e.uvarint(uint64(len(stats)))
	prev := -1
	for _, s := range stats {
		i := int(tl.index[s.Term])
		e.uvarint(uint64(i - prev - 1))
		prev = i
		e.uvarint(uint64(s.TF))
		e.float(secLoc, s.Loc)
	}
}

// DecodeState reads the model state WriteState wrote, all of b: the
// model, its packed engine installed as stored, and the partition (nil
// when none was stored). Metrics and Workers are left for the caller to
// set. Corrupt input fails with an error: every length prefix is checked
// against the bytes that remain before it allocates, and every index
// against what it points into.
func DecodeState(b []byte) (*Model, *cluster.Result, error) {
	d := &decoder{}
	var lens [sections - 1]uint64
	for i := range lens {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, nil, errors.New("snapshot corrupt: bad section length")
		}
		lens[i], b = v, b[n:]
	}
	for i, l := range lens {
		if l > uint64(len(b)) {
			return nil, nil, fmt.Errorf("snapshot corrupt: section %d overruns the state", i)
		}
		d.s[i], b = b[:l], b[l:]
	}
	d.s[sections-1] = b

	uniform := d.byte()
	feats := d.uvarint()
	m := &Model{Uniform: uniform == 1, Features: Features(feats)}
	m.C1, m.C2 = d.float(secWeight), d.float(secWeight)
	if uniform > 1 || feats > uint64(PCOnly) {
		d.fail("model parameters out of range")
	}
	pcs, fcs := d.space(), d.space()
	if d.err != nil {
		return nil, nil, d.err
	}
	m.PCDF, m.FCDF = pcs.df, fcs.df

	pages := d.count("page", need{secMain: 4})
	m.Pages = make([]*Page, pages)
	cp := &compiledPages{pcDict: pcs.dict, fcDict: fcs.dict,
		pc: make([]vector.Compiled, pages), fc: make([]vector.Compiled, pages)}
	for i := 0; i < pages && d.err == nil; i++ {
		p := &Page{URL: d.str()}
		switch d.byte() {
		case 0:
		case 1:
			p.Rec = &Record{Title: d.str()}
			p.Rec.PC = d.record(pcs.terms)
			p.Rec.FC = d.record(fcs.terms)
		default:
			d.fail("bad record flag")
		}
		cp.pc[i], cp.fc[i] = d.packed(pcs.dict.Len()), d.packed(fcs.dict.Len())
		p.PC, p.FC = cp.pc[i].Decompile(pcs.dict), cp.fc[i].Decompile(fcs.dict)
		m.Pages[i] = p
	}

	var res *cluster.Result
	switch d.byte() {
	case 0:
	case 1:
		k := d.count("centroid", need{secMain: 2})
		res = &cluster.Result{K: k, Assign: make([]int, pages), Centroids: make([]cluster.Point, k)}
		for i := range res.Assign {
			res.Assign[i] = d.below(k+1, "assignment") - 1
		}
		for c := range res.Centroids {
			res.Centroids[c] = cpoint{pc: d.packed(pcs.dict.Len()), fc: d.packed(fcs.dict.Len())}
		}
	default:
		d.fail("bad partition flag")
	}
	for i, s := range d.s {
		if len(s) > 0 {
			d.fail(fmt.Sprintf("%d trailing bytes in section %d", len(s), i))
		}
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	m.compiled = cp
	return m, res, nil
}

// decoder reads model state from its sections. The first failure
// sticks: later reads return zero values, and every count it returns is
// 0, so decoding loops end at once.
type decoder struct {
	s   [sections][]byte
	err error
}

// need is the least number of bytes one element takes in each section.
type need [sections]int

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = errors.New("snapshot corrupt: " + what)
	}
}

func (d *decoder) uvarint() uint64 { return d.uvarintFrom(secMain) }

func (d *decoder) uvarintFrom(sec int) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.s[sec])
	if n <= 0 {
		d.fail("bad or truncated uvarint")
		return 0
	}
	d.s[sec] = d.s[sec][n:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.s[secMain]) == 0 {
		d.fail("truncated")
		return 0
	}
	v := d.s[secMain][0]
	d.s[secMain] = d.s[secMain][1:]
	return v
}

func (d *decoder) float(sec int) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.s[sec]) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.s[sec]))
	d.s[sec] = d.s[sec][8:]
	return v
}

// count reads a length prefix for elements that each take at least
// per[s] bytes of section s, refusing one the remaining bytes could not
// hold, so no prefix allocates beyond the input.
func (d *decoder) count(what string, per need) int {
	v := d.uvarint()
	for s, n := range per {
		if n > 0 && v > uint64(len(d.s[s])/n) {
			d.fail(what + " count exceeds the remaining bytes")
			return 0
		}
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.count("string", need{secMain: 1})
	s := string(d.s[secMain][:n])
	d.s[secMain] = d.s[secMain][n:]
	return s
}

// below reads a value that must be less than n.
func (d *decoder) below(n int, what string) int {
	v := d.uvarint()
	if v >= uint64(n) {
		d.fail(what + " out of range")
		return 0
	}
	return int(v)
}

// packed reads a packed vector over a dictionary of vocab terms: IDs
// strictly ascending and below vocab.
func (d *decoder) packed(vocab int) vector.Compiled {
	n := d.count("vector", need{secIDs: 1, secWeight: 8})
	if n == 0 {
		return vector.NewCompiled(nil, nil)
	}
	ids := make([]uint32, n)
	next := uint64(0)
	for i := range ids {
		step := d.uvarintFrom(secIDs)
		if i > 0 && step == 0 {
			d.fail("vector IDs not ascending")
		}
		next += step
		if step >= uint64(vocab) || next >= uint64(vocab) {
			d.fail("vector ID outside the dictionary")
		}
		if d.err != nil {
			return vector.Compiled{}
		}
		ids[i] = uint32(next)
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = d.float(secWeight)
	}
	return vector.NewCompiled(ids, weights)
}

// space is one decoded feature space: its term list, DF table and
// dictionary.
type space struct {
	terms []string
	df    *vector.DocFreq
	dict  *vector.Dict
}

func (d *decoder) space() space {
	n := d.uvarint()
	if n > math.MaxInt32 {
		d.fail("DF document count out of range")
	}
	terms := make([]string, d.count("term", need{secMain: 2}))
	df := make(map[string]int, len(terms))
	for i := range terms {
		terms[i] = d.str()
		if c := d.uvarint(); c > 0 {
			if c > n {
				d.fail("DF above the document count")
			}
			df[terms[i]] = int(c)
		}
	}
	dictTerms := make([]string, d.count("dictionary", need{secMain: 1}))
	for id := range dictTerms {
		t := d.below(len(terms), "dictionary term")
		if d.err != nil {
			return space{}
		}
		dictTerms[id] = terms[t]
	}
	if d.err != nil {
		return space{}
	}
	dict, ok := vector.RestoreDict(dictTerms)
	if !ok {
		d.fail("dictionary repeats a term")
		return space{}
	}
	return space{terms: terms, df: vector.RestoreDocFreq(int(n), df), dict: dict}
}

// record reads one space of a term record over the space's term list.
func (d *decoder) record(terms []string) []TermStat {
	n := d.count("record", need{secMain: 2, secLoc: 8})
	if n == 0 {
		return nil
	}
	out := make([]TermStat, n)
	next := uint64(0)
	for i := range out {
		step := d.uvarint()
		next += step
		if step >= uint64(len(terms)) || next >= uint64(len(terms)) {
			d.fail("record term out of range")
		}
		tf := d.uvarint()
		if tf == 0 || tf > math.MaxUint32 {
			d.fail("TF out of range")
		}
		loc := d.float(secLoc)
		if d.err != nil {
			return nil
		}
		out[i] = TermStat{Term: terms[next], TF: uint32(tf), Loc: loc}
		next++
	}
	return out
}
