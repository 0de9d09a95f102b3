package cafc

import (
	"math"
	"reflect"
	"testing"

	"cafc/internal/vector"
)

// TestRecordEmbedMatchesTFIDF pins the record to the map path it
// replaces: embedding a page's record reproduces vector.TFIDF of its
// occurrence list bit for bit, weighted and uniform, and the record's
// PC half compiles to the search index's vector of the occurrences.
func TestRecordEmbedMatchesTFIDF(t *testing.T) {
	fps := genFormPages(t, 31, 60)
	for _, uniform := range []bool{false, true} {
		m := Build(fps, uniform)
		for i, fp := range fps {
			p := m.Pages[i]
			for _, sp := range []struct {
				name string
				got  vector.Vector
				want vector.Vector
			}{
				{"PC", p.PC, vector.TFIDF(fp.PCTerms, m.PCDF, uniform)},
				{"FC", p.FC, vector.TFIDF(fp.FCTerms, m.FCDF, uniform)},
			} {
				if len(sp.got) != len(sp.want) {
					t.Fatalf("uniform=%v page %d %s: %d terms, TFIDF %d", uniform, i, sp.name, len(sp.got), len(sp.want))
				}
				for term, w := range sp.want {
					if math.Float64bits(sp.got[term]) != math.Float64bits(w) {
						t.Fatalf("uniform=%v page %d %s %q: %v, TFIDF %v", uniform, i, sp.name, term, sp.got[term], w)
					}
				}
			}
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

// current reports whether page i's vectors are its record embedded
// under the model's DF tables as they are now.
func current(m *Model, i int) bool {
	p := m.Pages[i]
	e := m.EmbedRecord(p.URL, p.Rec)
	return reflect.DeepEqual(e.PC, p.PC) && reflect.DeepEqual(e.FC, p.FC)
}

// TestReembedAllFromRecords: a model grown batch by batch and then
// re-embedded from its records equals one built at once, and every page
// is current afterwards; pages appended before the DF tables grew are
// not.
func TestReembedAllFromRecords(t *testing.T) {
	fps := genFormPages(t, 32, 80)
	want := Build(fps, false)
	m := Build(fps[:40], false)
	m.AppendPages(fps[40:60])
	m.AppendPages(fps[60:])
	stale := 0
	for i := range m.Pages {
		if !current(m, i) {
			stale++
		}
	}
	if stale == 0 || current(m, 0) || !current(m, m.Len()-1) {
		t.Fatalf("after appends: %d stale pages, page 0 current %v, last current %v",
			stale, current(m, 0), current(m, m.Len()-1))
	}
	m.ReembedAll()
	for i, p := range m.Pages {
		if !reflect.DeepEqual(p.PC, want.Pages[i].PC) || !reflect.DeepEqual(p.FC, want.Pages[i].FC) {
			t.Fatalf("page %d: re-embedded vectors differ from a one-shot build", i)
		}
		if !current(m, i) {
			t.Fatalf("page %d not current after ReembedAll", i)
		}
	}

	// A page without a record keeps its stored vectors; every other page
	// is re-embedded.
	mixed := Build(fps[:40], false)
	mixed.AppendPages(fps[40:])
	bare := mixed.Pages[3]
	bare = &Page{URL: bare.URL, PC: bare.PC, FC: bare.FC}
	mixed.Pages[3] = bare
	if current(mixed, 0) {
		t.Fatal("page 0 current before the re-embed")
	}
	mixed.ReembedAll()
	for i, p := range mixed.Pages {
		if i == 3 {
			if p != bare {
				t.Fatal("ReembedAll replaced a page without a record")
			}
		} else if !reflect.DeepEqual(p.PC, want.Pages[i].PC) || !reflect.DeepEqual(p.FC, want.Pages[i].FC) {
			t.Fatalf("page %d: not re-embedded beside a page without a record", i)
		}
	}
}
