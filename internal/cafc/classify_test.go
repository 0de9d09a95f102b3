package cafc

import (
	"math/rand"
	"testing"

	"cafc/internal/form"
	"cafc/internal/webgen"
)

// TestClassifierOnHeldOutPages trains on one corpus and classifies a
// disjoint corpus generated from a different seed — the paper's "use the
// labelled clusters to classify new sources" scenario.
func TestClassifierOnHeldOutPages(t *testing.T) {
	train := buildPipeline(t, 100, 240)
	res := CAFCCH(train.model, train.k, train.clusters, 8, rand.New(rand.NewSource(1)))
	clf := NewLabelledClassifier(train.model, res, train.classes)

	test := webgen.Generate(webgen.Config{Seed: 200, FormPages: 120})
	correct, total, rejected := 0, 0, 0
	for _, u := range test.FormPages {
		fp, err := form.Parse(u, test.ByURL[u].HTML, form.DefaultWeights)
		if err != nil {
			t.Fatal(err)
		}
		pred, ok := clf.Classify(fp)
		if !ok {
			rejected++
			continue
		}
		total++
		if pred.Label == string(test.Labels[u]) {
			correct++
		}
	}
	if total == 0 {
		t.Fatal("classifier rejected everything")
	}
	acc := float64(correct) / float64(total)
	t.Logf("held-out accuracy %.3f (%d/%d, %d rejected)", acc, correct, total, rejected)
	if acc < 0.8 {
		t.Errorf("held-out accuracy %.3f too low", acc)
	}
	if rejected > 12 {
		t.Errorf("rejected %d of 120", rejected)
	}
}

func TestClassifierRankOrdering(t *testing.T) {
	p := buildPipeline(t, 101, 160)
	res := CAFCCH(p.model, p.k, p.clusters, 8, rand.New(rand.NewSource(1)))
	clf := NewLabelledClassifier(p.model, res, p.classes)

	ranked := clf.Rank(p.fps[0])
	if len(ranked) != p.k {
		t.Fatalf("ranked %d clusters, want %d", len(ranked), p.k)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Similarity > ranked[i-1].Similarity {
			t.Fatal("rank not sorted by similarity")
		}
	}
	// A training page must classify to the label of the cluster it was
	// assigned to (not necessarily its gold class — clusters may err).
	pred, ok := clf.Classify(p.fps[0])
	if !ok {
		t.Fatal("training page rejected")
	}
	assigned := res.Assign[0]
	if pred.Label != clf.Labels[assigned] {
		t.Errorf("training page classified as %q, its cluster's label is %q",
			pred.Label, clf.Labels[assigned])
	}
}

func TestClassifierRejectsEmptyPage(t *testing.T) {
	p := buildPipeline(t, 102, 80)
	res := CAFCC(p.model, p.k, rand.New(rand.NewSource(1)))
	clf := NewLabelledClassifier(p.model, res, p.classes)
	// A form page with vocabulary entirely outside the corpus.
	fp, err := form.Parse("http://alien.example/", `<html><head><title>zzqx</title></head>
	<body><form><input type=text name=qq><input type=submit value=zzgo></form></body></html>`, form.DefaultWeights)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := clf.Classify(fp); ok {
		t.Error("page with unknown vocabulary should be rejected")
	}
}

func TestNewClassifierLabelPadding(t *testing.T) {
	p := buildPipeline(t, 103, 64)
	res := CAFCC(p.model, p.k, rand.New(rand.NewSource(1)))
	clf := NewClassifier(p.model, res, []string{"only-one"})
	if len(clf.Labels) != p.k {
		t.Fatalf("labels = %d, want %d", len(clf.Labels), p.k)
	}
	if clf.Labels[0] != "only-one" || clf.Labels[1] != "" {
		t.Errorf("labels = %v", clf.Labels[:2])
	}
}
