package cafc

import (
	"reflect"
	"testing"

	"cafc/internal/form"
	"cafc/internal/vector"
)

// TestRecordEmbedMatchesTFIDF pins the record embed to the map path it
// replaces: the model's engine is vector.TFIDF of each page's
// occurrence list, compiled page by page, bit for bit, weighted and
// uniform; and the record's PC half compiles to the search index's
// vector of the occurrences.
func TestRecordEmbedMatchesTFIDF(t *testing.T) {
	fps := genFormPages(t, 31, 60)
	for _, uniform := range []bool{false, true} {
		m := Build(fps, uniform)
		o := newMapOracle()
		for _, fp := range fps {
			o.add(tfidfMaps(m, fp))
		}
		o.check(t, m)
		for i, fp := range fps {
			p := m.Pages[i]
			if p.Rec.Title != fp.Title {
				t.Fatalf("page %d: record title %q, want %q", i, p.Rec.Title, fp.Title)
			}
			got := vector.CompileWeighted(p.Rec.AppendPC(nil), vector.NewDict())
			want := vector.CompileWeighted(fp.PCTerms, vector.NewDict())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("page %d: record PC half compiles differently from its occurrences", i)
			}
		}
	}
}

// current reports whether page i's packed vectors are fps[i] embedded
// under the model's DF tables as they are now.
func current(m *Model, fps []*form.FormPage, i int) bool {
	return reflect.DeepEqual(m.Point(i), m.CompileVectors(tfidfMaps(m, fps[i])))
}

// TestReembedAllFromRecords: a model grown batch by batch and then
// re-embedded from its records equals one built at once, dictionaries
// included, and every page is current afterwards; pages appended before
// the DF tables grew are not.
func TestReembedAllFromRecords(t *testing.T) {
	fps := genFormPages(t, 32, 80)
	want := Build(fps, false)
	m := Build(fps[:40], false)
	m.AppendPages(fps[40:60])
	m.AppendPages(fps[60:])
	stale := 0
	for i := range m.Pages {
		if !current(m, fps, i) {
			stale++
		}
	}
	if stale == 0 || current(m, fps, 0) || !current(m, fps, m.Len()-1) {
		t.Fatalf("after appends: %d stale pages, page 0 current %v, last current %v",
			stale, current(m, fps, 0), current(m, fps, m.Len()-1))
	}
	m.ReembedAll()
	assertSameModel(t, m, want)
	for i := range m.Pages {
		if !current(m, fps, i) {
			t.Fatalf("page %d not current after ReembedAll", i)
		}
	}
}
