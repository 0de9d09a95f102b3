package cafc

import (
	"math/rand"
	"reflect"
	"testing"

	"cafc/internal/form"
	"cafc/internal/webgen"
)

// parseFormsCorpus parses a FormsOnly webgen corpus without building
// the model, so tests can build the same pages under different
// BuildOpts.
func parseFormsCorpus(t testing.TB, seed int64, n int) []*form.FormPage {
	t.Helper()
	c := webgen.Generate(webgen.Config{Seed: seed, FormPages: n, FormsOnly: true})
	fps := make([]*form.FormPage, 0, len(c.FormPages))
	for _, u := range c.FormPages {
		fp, err := form.Parse(u, c.ByURL[u].HTML, form.DefaultWeights)
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		fps = append(fps, fp)
	}
	return fps
}

// TestBuildParallelBitIdentical is the parallel-build contract: for the
// same corpus, BuildWith at any worker count produces the same model —
// same DF tables, same TF-IDF vectors, same packed points — bit for
// bit. The serial Workers:1 run is the reference.
func TestBuildParallelBitIdentical(t *testing.T) {
	fps := parseFormsCorpus(t, 2007, 454)
	ref := BuildWith(fps, BuildOpts{Workers: 1})
	for _, workers := range []int{2, 4, 0} {
		m := BuildWith(fps, BuildOpts{Workers: workers})
		if !reflect.DeepEqual(ref.Pages, m.Pages) {
			t.Fatalf("workers=%d: embedded pages differ from serial build", workers)
		}
		if m.FCDF.N() != ref.FCDF.N() || m.FCDF.Vocabulary() != ref.FCDF.Vocabulary() ||
			m.PCDF.N() != ref.PCDF.N() || m.PCDF.Vocabulary() != ref.PCDF.Vocabulary() {
			t.Fatalf("workers=%d: DF tables differ from serial build", workers)
		}
		for i := 0; i < ref.Len(); i++ {
			if !reflect.DeepEqual(ref.Point(i), m.Point(i)) {
				t.Fatalf("workers=%d: packed point %d differs from serial build", workers, i)
			}
		}
		// And the models cluster identically.
		rr := CAFCC(ref, 8, rand.New(rand.NewSource(5)))
		mr := CAFCC(m, 8, rand.New(rand.NewSource(5)))
		if !reflect.DeepEqual(rr.Assign, mr.Assign) {
			t.Fatalf("workers=%d: clustering the parallel-built model diverged", workers)
		}
	}
}

// TestBuildMatchesLegacyEntryPoints pins the delegation: Build and
// BuildMetrics are BuildWith with default workers, nothing more.
func TestBuildMatchesLegacyEntryPoints(t *testing.T) {
	fps := parseFormsCorpus(t, 7, 60)
	a := Build(fps, false)
	b := BuildWith(fps, BuildOpts{})
	if !reflect.DeepEqual(a.Pages, b.Pages) {
		t.Error("Build diverged from BuildWith with default options")
	}
	for i := 0; i < a.Len(); i++ {
		if !reflect.DeepEqual(a.Point(i), b.Point(i)) {
			t.Fatalf("packed point %d differs between Build and BuildWith", i)
		}
	}
}
