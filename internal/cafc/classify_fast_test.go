package cafc

import (
	"math/rand"
	"reflect"
	"testing"

	"cafc/internal/cluster"
	"cafc/internal/form"
	"cafc/internal/webgen"
)

// alienHTML is a form page whose vocabulary the training corpus has
// never seen: every term misses both dictionaries, so all similarities
// must be exactly zero and Classify must reject.
const alienHTML = `<html><head><title>zzqx qwvv bbnn</title></head>
<body><p>mmzz kkqq ploo vrrt</p>
<form action="/x" method="get">Xyzzy: <input type="text" name="qq"><input type="submit" value="Frobnicate"></form>
</body></html>`

// classifierFixture builds a trained classifier plus a mixed bag of
// probe pages: training pages, held-out pages from a different seed,
// and the alien page.
func classifierFixture(t testing.TB) (*Classifier, []*form.FormPage) {
	t.Helper()
	p := buildPipeline(t, 100, 160)
	res := cluster.KMeans(p.model, p.k, nil, cluster.Options{Rand: rand.New(rand.NewSource(1))})
	clf := NewLabelledClassifier(p.model, res, p.classes)
	var probes []*form.FormPage
	for _, i := range []int{0, 7, 33, 150} {
		probes = append(probes, p.fps[i])
	}
	held := webgen.Generate(webgen.Config{Seed: 200, FormPages: 24})
	for _, u := range held.FormPages {
		fp, err := form.Parse(u, held.ByURL[u].HTML, form.DefaultWeights)
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		probes = append(probes, fp)
	}
	alien, err := form.Parse("http://alien.example/search.html", alienHTML, form.DefaultWeights)
	if err != nil {
		t.Fatalf("alien page: %v", err)
	}
	probes = append(probes, alien)
	return clf, probes
}

// refRank recomputes the ranking through the generic reference pipeline
// the fast path must reproduce bit for bit: Embed → CompilePoint → Sim
// per centroid, then the shared sort.
func refRank(clf *Classifier, fp *form.FormPage) []Prediction {
	q := clf.model.CompilePoint(clf.model.PointOf(clf.model.Embed(fp)))
	out := make([]Prediction, 0, len(clf.centroids))
	for i, cent := range clf.centroids {
		out = append(out, Prediction{Cluster: i, Label: clf.Labels[i], Similarity: clf.model.Sim(q, cent)})
	}
	sortPredictions(out)
	return out
}

// TestClassifyFastMatchesReference pins the zero-allocation serve path
// to the generic embed-and-compare pipeline: identical similarities
// (float64-bit equal), identical order, identical accept/reject — for
// training pages, held-out pages and an out-of-vocabulary page.
func TestClassifyFastMatchesReference(t *testing.T) {
	clf, probes := classifierFixture(t)
	if clf.engine() == nil {
		t.Fatal("fast path inactive: classify engine not built")
	}
	for pi, fp := range probes {
		want := refRank(clf, fp)
		got := clf.Rank(fp)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("probe %d (%s): fast Rank differs from reference", pi, fp.URL)
		}
		pred, ok := clf.Classify(fp)
		if pred != want[0] {
			t.Errorf("probe %d (%s): Classify = %+v, reference top = %+v", pi, fp.URL, pred, want[0])
		}
		if wantOK := want[0].Similarity > 0; ok != wantOK {
			t.Errorf("probe %d (%s): Classify ok = %v, want %v", pi, fp.URL, ok, wantOK)
		}
	}
	// The alien page must have been rejected with all-zero similarities.
	alien := probes[len(probes)-1]
	if _, ok := clf.Classify(alien); ok {
		t.Error("alien page accepted by fast path")
	}
}

// TestClassifyFastMatchesReferenceFeatures repeats the equivalence
// check for the single-space similarity variants, which score through
// the engine's FCOnly/PCOnly branches.
func TestClassifyFastMatchesReferenceFeatures(t *testing.T) {
	p := buildPipeline(t, 101, 120)
	res := cluster.KMeans(p.model, p.k, nil, cluster.Options{Rand: rand.New(rand.NewSource(2))})
	for _, feats := range []Features{FCOnly, PCOnly} {
		mv := p.model.WithFeatures(feats)
		clf := NewLabelledClassifier(mv, res, p.classes)
		if clf.engine() == nil {
			t.Fatalf("%v: fast path inactive", feats)
		}
		for _, i := range []int{0, 11, 60} {
			fp := p.fps[i]
			want := refRank(clf, fp)
			if got := clf.Rank(fp); !reflect.DeepEqual(want, got) {
				t.Errorf("%v page %d: fast Rank differs from reference", feats, i)
			}
		}
	}
}

// TestClassifyZeroAlloc pins the serve path at zero steady-state heap
// allocations per classification.
func TestClassifyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	clf, probes := classifierFixture(t)
	if clf.engine() == nil {
		t.Fatal("fast path inactive: classify engine not built")
	}
	// Warm the pool and grow every scratch buffer to its steady state.
	for _, fp := range probes {
		clf.Classify(fp)
	}
	for _, fp := range []*form.FormPage{probes[0], probes[5]} {
		allocs := testing.AllocsPerRun(100, func() {
			clf.Classify(fp)
		})
		if allocs != 0 {
			t.Errorf("%s: Classify allocates %v/op, want 0", fp.URL, allocs)
		}
	}
}

// BenchmarkClassify measures the steady-state serve path (allocations
// reported; the regression gate is TestClassifyZeroAlloc).
func BenchmarkClassify(b *testing.B) {
	clf, probes := classifierFixture(b)
	for _, fp := range probes {
		clf.Classify(fp)
	}
	fp := probes[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.Classify(fp)
	}
}
