package cafc

import (
	"sort"
	"sync"

	"cafc/internal/cluster"
	"cafc/internal/form"
	"cafc/internal/metrics"
	"cafc/internal/vector"
)

// Classifier assigns new form pages to the domain of the nearest cluster
// centroid. The paper's Section 5 points out that once CAFC's clusters
// are built and labelled, they become an automatic classifier for newly
// discovered hidden-web sources — this type implements that suggestion.
//
// Classify and Rank serve through a pooled, allocation-free fast path
// (see classifyEngine), pinned bit-identical to embedding the page with
// vector.TFIDF, packing it with CompileVectors and scoring it with Sim.
// A Classifier is safe for concurrent use once built.
type Classifier struct {
	model     *Model
	centroids []cluster.Point
	// Labels names each cluster (e.g. its majority gold domain, or a
	// human-assigned directory label).
	Labels []string

	engineOnce sync.Once
	eng        *classifyEngine
}

// NewClassifier builds a nearest-centroid classifier from a clustering of
// the model. labels[i] names cluster i; missing entries default to "".
func NewClassifier(m *Model, res cluster.Result, labels []string) *Classifier {
	c := &Classifier{model: m}
	members := cluster.Members(res.Assign, res.K)
	for i := 0; i < res.K; i++ {
		c.centroids = append(c.centroids, m.Centroid(members[i]))
		if i < len(labels) {
			c.Labels = append(c.Labels, labels[i])
		} else {
			c.Labels = append(c.Labels, "")
		}
	}
	return c
}

// NewClassifierFromCentroids builds a classifier around centroids that
// already exist (a clustering result's, or a published epoch's) instead
// of recomputing them from member lists — the live directory builds one
// per epoch, so the constructor must be O(k), not O(corpus).
func NewClassifierFromCentroids(m *Model, centroids []cluster.Point, labels []string) *Classifier {
	c := &Classifier{model: m, centroids: centroids}
	for i := range centroids {
		if i < len(labels) {
			c.Labels = append(c.Labels, labels[i])
		} else {
			c.Labels = append(c.Labels, "")
		}
	}
	return c
}

// NewLabelledClassifier derives cluster names from gold classes: each
// cluster is named after its majority class.
func NewLabelledClassifier(m *Model, res cluster.Result, classes []string) *Classifier {
	members := cluster.Members(res.Assign, res.K)
	labels := make([]string, res.K)
	for i, ms := range members {
		labels[i], _ = metrics.MajorityClass(ms, classes)
	}
	return NewClassifier(m, res, labels)
}

// Prediction is a ranked classification outcome.
type Prediction struct {
	Cluster    int
	Label      string
	Similarity float64
}

// Classify embeds the form page into the model's TF-IDF spaces and
// returns the most similar cluster. ok is false when the page has no
// similarity to any centroid (all-zero vectors) or the classifier has
// no clusters. This allocates nothing: the winner is a single pass over
// pooled scores, with the same lowest-index tie break the ranked path's
// sort produces.
func (c *Classifier) Classify(fp *form.FormPage) (Prediction, bool) {
	return c.ClassifyTerms(fp.FCTerms, fp.PCTerms)
}

// ClassifyTerms is Classify for a page given only its FC and PC term
// occurrences (form.Terms), so a caller that keeps no FormPage need not
// build one.
func (c *Classifier) ClassifyTerms(fc, pc []vector.WeightedTerm) (Prediction, bool) {
	if len(c.centroids) == 0 {
		return Prediction{}, false
	}
	e := c.engine()
	sc := e.pool.Get().(*classifyScratch)
	defer e.pool.Put(sc)
	best, bestSim := 0, -1.0
	for i, sim := range e.score(sc, fc, pc) {
		if sim > bestSim {
			best, bestSim = i, sim
		}
	}
	return Prediction{Cluster: best, Label: c.Labels[best], Similarity: bestSim}, bestSim > 0
}

// Rank returns every cluster ordered by decreasing similarity to the
// page (ties broken by cluster index). Unlike Classify it must return a
// slice, so it allocates the result — but nothing else.
func (c *Classifier) Rank(fp *form.FormPage) []Prediction {
	e := c.engine()
	sc := e.pool.Get().(*classifyScratch)
	defer e.pool.Put(sc)
	out := make([]Prediction, 0, len(c.centroids))
	for i, sim := range e.score(sc, fp.FCTerms, fp.PCTerms) {
		out = append(out, Prediction{Cluster: i, Label: c.Labels[i], Similarity: sim})
	}
	sortPredictions(out)
	return out
}

func sortPredictions(out []Prediction) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].Cluster < out[j].Cluster
	})
}
