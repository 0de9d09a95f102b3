package cafc

import (
	"slices"
	"strings"
	"sync"

	"cafc/internal/form"
	"cafc/internal/vector"
)

// TermStat is one distinct term of a page in one feature space: its
// occurrence count (TF) and the sum of its occurrences' LOC factors
// (Loc), added in occurrence order as vector.TFIDF adds them.
type TermStat struct {
	Term string
	TF   uint32
	Loc  float64
}

// Record is a page's compact term record: its title and, for each
// feature space, every distinct term with its TF and summed LOC, sorted
// by term. It is all a model needs of a page's extraction. Embedding a
// record under any DF table reproduces vector.TFIDF of the page's
// occurrences bit for bit (see Model.embed), so a rebuild re-embeds from
// it, and the search index reads its PC half. Records are immutable
// once built.
type Record struct {
	Title  string
	PC, FC []TermStat
}

// NewRecord aggregates a form page's term occurrences into its record.
func NewRecord(fp *form.FormPage) *Record {
	return &Record{Title: fp.Title, PC: termStats(fp.PCTerms), FC: termStats(fp.FCTerms)}
}

// AppendPC appends the record's PC half to dst as one weighted term per
// distinct term, in term order, carrying its summed LOC.
// vector.CompileWeighted compiles these to the same bits as the page's
// occurrence list (0 + Σloc = Σloc), which is what the search index is
// built from.
func (r *Record) AppendPC(dst []vector.WeightedTerm) []vector.WeightedTerm {
	for _, s := range r.PC {
		dst = append(dst, vector.WeightedTerm{Term: s.Term, Loc: s.Loc})
	}
	return dst
}

// statScratch is termStats' reusable aggregation state; embedding is
// sharded across workers, hence a pool.
type statScratch struct {
	at  map[string]int
	buf []TermStat
}

var statPool = sync.Pool{New: func() any { return &statScratch{at: make(map[string]int, 64)} }}

// termStats aggregates occurrences by term into an exact-size slice,
// sorted by term.
func termStats(terms []vector.WeightedTerm) []TermStat {
	if len(terms) == 0 {
		return nil
	}
	sc := statPool.Get().(*statScratch)
	buf := sc.buf[:0]
	for _, wt := range terms {
		i, ok := sc.at[wt.Term]
		if !ok {
			i = len(buf)
			sc.at[wt.Term] = i
			buf = append(buf, TermStat{Term: wt.Term})
		}
		buf[i].TF++
		buf[i].Loc += wt.Loc
	}
	out := append([]TermStat(nil), buf...)
	slices.SortFunc(out, func(a, b TermStat) int { return strings.Compare(a.Term, b.Term) })
	clear(sc.at)
	sc.buf = buf
	statPool.Put(sc)
	return out
}

// Weight is the term's TF-IDF weight, with vector.TFIDF's float
// operations: w = (Σloc/tf)·tf·idf, with tf in place of Σloc under the
// uniform ablation (TFIDF counts each occurrence's LOC as 1 there).
func (s TermStat) Weight(idf float64, uniform bool) float64 {
	tf := float64(s.TF)
	loc := s.Loc
	if uniform {
		loc = tf
	}
	avgLoc := loc / tf
	return avgLoc * tf * idf
}
