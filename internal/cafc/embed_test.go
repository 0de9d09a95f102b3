package cafc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cafc/internal/form"
	"cafc/internal/hub"
	"cafc/internal/vector"
)

// tfidfMaps embeds fp as the map path did: vector.TFIDF of its
// occurrences in each space under m's DF tables.
func tfidfMaps(m *Model, fp *form.FormPage) (pc, fc vector.Vector) {
	return vector.TFIDF(fp.PCTerms, m.PCDF, m.Uniform), vector.TFIDF(fp.FCTerms, m.FCDF, m.Uniform)
}

// mapOracle is the engine the map path compiled: page by page in order,
// each page's TF-IDF maps had their new terms interned in sorted order
// and were then packed with vector.CompileLookup.
type mapOracle struct {
	pcDict, fcDict *vector.Dict
	pc, fc         []vector.Compiled
}

func newMapOracle() *mapOracle {
	return &mapOracle{pcDict: vector.NewDict(), fcDict: vector.NewDict()}
}

// add compiles the next page from its PC and FC maps.
func (o *mapOracle) add(pc, fc vector.Vector) {
	internSortedMap(pc, o.pcDict)
	internSortedMap(fc, o.fcDict)
	o.pc = append(o.pc, vector.CompileLookup(pc, o.pcDict))
	o.fc = append(o.fc, vector.CompileLookup(fc, o.fcDict))
}

// internSortedMap interns the terms of v that d lacks, in lexicographic
// order.
func internSortedMap(v vector.Vector, d *vector.Dict) {
	var terms []string
	for t := range v {
		if _, ok := d.ID(t); !ok {
			terms = append(terms, t)
		}
	}
	sort.Strings(terms)
	for _, t := range terms {
		d.Intern(t)
	}
}

// check requires m's engine to equal the oracle's bit for bit: the same
// dictionaries, and every page's packed IDs, weights and norms.
func (o *mapOracle) check(t *testing.T, m *Model) {
	t.Helper()
	cp := m.compiled
	for _, d := range [][2]*vector.Dict{{cp.pcDict, o.pcDict}, {cp.fcDict, o.fcDict}} {
		if d[0].Len() != d[1].Len() {
			t.Fatalf("dictionary of %d terms, map path %d", d[0].Len(), d[1].Len())
		}
		for id := 0; id < d[0].Len(); id++ {
			if d[0].Term(uint32(id)) != d[1].Term(uint32(id)) {
				t.Fatalf("dictionary ID %d is %q, map path %q", id, d[0].Term(uint32(id)), d[1].Term(uint32(id)))
			}
		}
	}
	if m.Len() != len(o.pc) || len(cp.pc) != len(o.pc) || len(cp.fc) != len(o.fc) {
		t.Fatalf("%d pages (%d/%d packed), map path %d", m.Len(), len(cp.pc), len(cp.fc), len(o.pc))
	}
	for i := range o.pc {
		if !sameBits(cp.pc[i], o.pc[i]) || !sameBits(cp.fc[i], o.fc[i]) {
			t.Fatalf("page %d: packed vectors differ from the map path's", i)
		}
	}
}

// randomPages draws n form pages over small vocabularies with repeated
// occurrences and mixed LOC factors. "common" is in every page's PC
// space, so its IDF is 0, and some pages hold nothing else there. Each
// of the first 20 pages has "early" in its FC space, and some later
// pages have it too, so it carries weight, and enters the dictionary,
// only once pages without it arrive. A quarter of the later pages have
// an empty FC space. Page i draws from a vocabulary of 8+i terms, so
// later pages bring terms new to the dictionaries.
func randomPages(rng *rand.Rand, n int) []*form.FormPage {
	locs := []float64{0.5, 1, 1.7, 2, 3}
	occ := func(prefix string, vocab, max int) []vector.WeightedTerm {
		var ts []vector.WeightedTerm
		for j := rng.Intn(max + 1); j > 0; j-- {
			term := fmt.Sprintf("%s%02d", prefix, rng.Intn(vocab))
			for r := 1 + rng.Intn(3); r > 0; r-- {
				ts = append(ts, vector.WeightedTerm{Term: term, Loc: locs[rng.Intn(len(locs))]})
			}
		}
		return ts
	}
	fps := make([]*form.FormPage, n)
	for i := range fps {
		fp := &form.FormPage{URL: fmt.Sprintf("http://p%d.example/", i)}
		fp.PCTerms = append(occ("p", 8+i, 8), vector.WeightedTerm{Term: "common", Loc: locs[rng.Intn(len(locs))]})
		if i < 20 {
			fp.FCTerms = append(occ("f", 8+i, 5), vector.WeightedTerm{Term: "early", Loc: 1})
		} else if rng.Intn(4) > 0 {
			fp.FCTerms = occ("f", 8+i, 6)
			if rng.Intn(3) == 0 {
				fp.FCTerms = append(fp.FCTerms, vector.WeightedTerm{Term: "early", Loc: 2})
			}
		}
		rng.Shuffle(len(fp.PCTerms), func(a, b int) { fp.PCTerms[a], fp.PCTerms[b] = fp.PCTerms[b], fp.PCTerms[a] })
		fps[i] = fp
	}
	return fps
}

// TestEmbedMatchesMapPathProperty: over random pages — weighted and
// uniform, terms in every document (IDF 0), terms new to the
// dictionaries, empty feature spaces — the direct embed of BuildWith,
// of each of a sequence of AppendPages calls and of ReembedAll equals
// the map path bit for bit: the same dictionaries, so the same IDs, and
// the same weights and norms.
func TestEmbedMatchesMapPathProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		fps := randomPages(rand.New(rand.NewSource(seed)), 60)
		for _, uniform := range []bool{false, true} {
			m := BuildWith(fps[:20], BuildOpts{Uniform: uniform, Workers: 1 + int(seed%4)})
			o := newMapOracle()
			for _, fp := range fps[:20] {
				o.add(tfidfMaps(m, fp))
			}
			o.check(t, m)
			for lo := 20; lo < len(fps); lo += 10 {
				m.AppendPages(fps[lo : lo+10])
				for _, fp := range fps[lo : lo+10] {
					o.add(tfidfMaps(m, fp))
				}
				o.check(t, m)
			}
			m.ReembedAll()
			o = newMapOracle()
			for _, fp := range fps {
				o.add(tfidfMaps(m, fp))
			}
			o.check(t, m)
		}
	}
}

// TestAnchoredSeedsMatchMapCentroids: anchor enrichment's map-form
// centroid, decompiled from the packed one, is vector.Centroid over the
// members' TF-IDF maps bit for bit, and SelectHubClustersAnchored picks
// the seeds it picked from those map centroids.
func TestAnchoredSeedsMatchMapCentroids(t *testing.T) {
	p, g := enrichPipeline(t, 62, 200)
	const minCard = 8
	oracle := newMapSpace(p.model, p.fps)
	mapCentroid := func(members []int) point {
		c := oracle.Centroid(members).(mapPoint)
		return point{pc: c.pc, fc: c.fc}
	}
	kept := hub.Filter(p.clusters, minCard)
	if len(kept) <= p.k {
		t.Fatalf("%d candidate hub clusters for k=%d: nothing to select", len(kept), p.k)
	}
	for i, c := range kept {
		if got, want := p.model.centroidMap(c.Members), mapCentroid(c.Members); !reflect.DeepEqual(got, want) {
			t.Fatalf("candidate %d: decompiled centroid differs from the map centroid", i)
		}
	}
	got := SelectHubClustersAnchored(p.model, p.clusters, p.k, minCard, g.OutAnchors)
	want := selectAnchored(p.model, p.clusters, p.k, minCard, g.OutAnchors, mapCentroid)
	if len(got) != p.k || !reflect.DeepEqual(got, want) {
		t.Fatalf("anchored seeds %v, from map centroids %v", got, want)
	}
}
