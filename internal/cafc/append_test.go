package cafc

import (
	"math/rand"
	"reflect"
	"testing"

	"cafc/internal/cluster"
	"cafc/internal/form"
	"cafc/internal/vector"
	"cafc/internal/webgen"
)

// genFormPages extracts n form pages from the synthetic web.
func genFormPages(t testing.TB, seed int64, n int) []*form.FormPage {
	t.Helper()
	c := webgen.Generate(webgen.Config{Seed: seed, FormPages: n, FormsOnly: true})
	fps := make([]*form.FormPage, 0, n)
	for _, u := range c.FormPages {
		fp, err := form.Parse(u, c.ByURL[u].HTML, form.DefaultWeights)
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		fps = append(fps, fp)
	}
	return fps
}

// TestAppendPagesParallelBitIdentical pins the sharded incremental
// append to the serial reference: for every worker count, the grown
// model's compiled points, dictionaries, and DF-dependent centroids are
// bit-identical — the property the live ingest pipeline's epoch
// bit-identity rests on. Two batches exercise both the append-to-fresh
// and append-to-grown dictionary states.
func TestAppendPagesParallelBitIdentical(t *testing.T) {
	fps := genFormPages(t, 21, 90)
	base := BuildWith(fps[:30], BuildOpts{Workers: 1})

	grow := func(workers int) *Model {
		m := base.Clone()
		m.Workers = workers
		m.AppendPages(fps[30:60])
		m.AppendPages(fps[60:])
		return m
	}
	ref := grow(1)
	for _, workers := range []int{2, 3, 8} {
		got := grow(workers)
		if got.Len() != ref.Len() {
			t.Fatalf("workers=%d: %d pages, want %d", workers, got.Len(), ref.Len())
		}
		for i := 0; i < ref.Len(); i++ {
			if !reflect.DeepEqual(got.Point(i), ref.Point(i)) {
				t.Fatalf("workers=%d: compiled point %d differs from serial append", workers, i)
			}
			if !reflect.DeepEqual(got.Pages[i], ref.Pages[i]) {
				t.Fatalf("workers=%d: page %d or its record differs from serial append", workers, i)
			}
		}
		members := make([]int, ref.Len())
		for i := range members {
			members[i] = i
		}
		if !reflect.DeepEqual(got.Centroid(members), ref.Centroid(members)) {
			t.Fatalf("workers=%d: whole-corpus centroid differs from serial append", workers)
		}
	}
}

// TestReembedAllParallelBitIdentical holds the sharded re-embed to the
// same standard across worker counts.
func TestReembedAllParallelBitIdentical(t *testing.T) {
	fps := genFormPages(t, 22, 60)
	build := func(workers int) *Model {
		m := BuildWith(fps[:40], BuildOpts{Workers: workers})
		m.Workers = workers
		m.AppendPages(fps[40:])
		m.ReembedAll()
		return m
	}
	ref := build(1)
	got := build(8)
	for i := 0; i < ref.Len(); i++ {
		if !reflect.DeepEqual(got.Point(i), ref.Point(i)) {
			t.Fatalf("workers=8: re-embedded point %d differs from serial", i)
		}
	}
}

// TestCentroidTopTermsMatchesMapPath pins the compiled cluster-labeling
// fast path to the map reference — vector.Centroid over the members'
// PC vectors (vector.TFIDF of their occurrences), TopTerms with
// term-string tie-breaks — on real clusters, and checks CentroidWith
// reuse leaves no state behind in the shared accumulators.
func TestCentroidTopTermsMatchesMapPath(t *testing.T) {
	fps := genFormPages(t, 23, 100)
	m := Build(fps, false)
	res := CAFCC(m, 6, rand.New(rand.NewSource(4)))
	members := cluster.Members(res.Assign, res.K)

	acc := vector.NewAccumulator(0)
	var pacc, facc vector.Accumulator
	for c, mem := range members {
		if len(mem) == 0 {
			continue
		}
		pcs := make([]vector.Vector, len(mem))
		for i, p := range mem {
			pcs[i], _ = tfidfMaps(m, fps[p])
		}
		want := vector.Centroid(pcs).TopTerms(8)
		got := m.CentroidTopTerms(mem, 8, acc)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cluster %d: fast-path top terms %v, map path %v", c, got, want)
		}
		if !reflect.DeepEqual(m.CentroidWith(mem, &pacc, &facc), m.Centroid(mem)) {
			t.Errorf("cluster %d: CentroidWith with pooled accumulators differs from Centroid", c)
		}
	}
}
