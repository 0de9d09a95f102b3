// Package cafc is a Go implementation of Context-Aware Form Clustering
// (CAFC), the approach of Barbosa, Freire and Silva, "Organizing
// Hidden-Web Databases by Clustering Visible Web Documents" (ICDE 2007).
//
// Given a heterogeneous set of Web form pages that serve as entry points
// to hidden-web databases, CAFC groups the pages by database domain using
// only visible, automatically extractable evidence:
//
//   - the form-page model: each page is two TF-IDF vector spaces, the
//     form contents (FC) and the page contents (PC), with
//     location-differentiated term weights;
//   - CAFC-C: k-means over the combined cosine similarity of both spaces;
//   - CAFC-CH: a two-phase variant that first derives seed clusters from
//     hub pages (shared backlinks) and then refines them with content
//     similarity.
//
// Quick start:
//
//	docs := []cafc.Document{{URL: u1, HTML: h1}, {URL: u2, HTML: h2}}
//	corpus, err := cafc.NewCorpus(docs)
//	if err != nil { ... }
//	clusters := corpus.ClusterC(8, 0) // CAFC-C with k=8
//	for _, c := range clusters.Clusters { fmt.Println(c) }
//
// With backlink information (any func(url) ([]string, error), e.g. a
// search engine's link: API) CAFC-CH usually produces substantially more
// homogeneous clusters:
//
//	clusters = corpus.ClusterCH(8, backlinks, roots, 0)
package cafc

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	icafc "cafc/internal/cafc"
	"cafc/internal/cluster"
	"cafc/internal/form"
	"cafc/internal/hub"
	"cafc/internal/metrics"
	"cafc/internal/obs"
	"cafc/internal/retry"
	"cafc/internal/stream"
	"cafc/internal/vector"
	"cafc/internal/webgraph"
)

// Registry is the in-process observability registry (counters, gauges,
// histograms). Attach one via Options.Metrics to collect model-build and
// clustering telemetry; serve it with the /metrics endpoints the cmd
// binaries expose, or snapshot it directly.
type Registry = obs.Registry

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Document is one input page: its URL and raw HTML. It is the stream's
// WAL document type, so live ingestion and recovery pass documents
// through without copying them.
type Document = stream.Doc

// Options configures corpus construction.
type Options struct {
	// Weights are the LOC factors of the weighted TF-IDF (Equation 1).
	// The zero value selects the paper's differentiated weights.
	Weights form.Weights
	// UniformWeights disables location differentiation (Section 4.4's
	// ablation).
	UniformWeights bool
	// Features restricts similarity to one feature space; default is the
	// combined FC+PC measure.
	Features Features
	// SkipNonSearchable drops documents without a searchable form
	// instead of failing. The paper assumes a pre-filtered input set;
	// enable this when feeding raw crawls.
	SkipNonSearchable bool
	// C1 and C2 weigh the PC and FC cosines in the combined similarity
	// (Equation 3). Zero values select the paper's C1 = C2 = 1.
	C1, C2 float64
	// Metrics, when non-nil, collects build and clustering telemetry for
	// this corpus: TF-IDF build timing, k-means convergence (moved
	// fraction, iteration counts, empty-cluster repairs), HAC merge
	// timing, and the backward-crawl coverage counters of ClusterCH. Nil
	// disables all instrumentation; clustering results are identical
	// either way.
	Metrics *Registry
	// Retry, when non-nil, makes ClusterCH's backlink queries resilient:
	// bounded retries with exponential backoff, a circuit breaker, and a
	// total query budget. When the budget runs out or the breaker trips,
	// hub construction degrades to the hubs gathered so far (CAFC-CH
	// fills the seed shortfall randomly, as Algorithm 1 would) and the
	// Clustering reports the reason in Degraded. Nil leaves backlink
	// queries exactly as provided — results are bit-identical to a
	// build without this option.
	Retry *Retry
}

// Retry is the resilience policy Options.Retry attaches to ClusterCH's
// backlink queries. Zero fields select the defaults noted per field.
type Retry struct {
	// MaxAttempts per query, first try included (0 = 3).
	MaxAttempts int
	// BaseDelay is the initial backoff (0 = 100ms); MaxDelay caps it
	// (0 = 2s). Jitter is deterministic, driven by Seed.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	Seed      int64
	// Budget caps total underlying queries, retries included
	// (0 = unlimited) — the paper's bounded backward-crawl budget.
	Budget int
	// BreakerThreshold consecutive failures trip the circuit breaker
	// (0 = 5); it half-opens after BreakerCooldown (0 = 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// Features selects the feature spaces used for similarity.
type Features = icafc.Features

// Feature-space configurations.
const (
	FCPC   = icafc.FCPC
	FCOnly = icafc.FCOnly
	PCOnly = icafc.PCOnly
)

// Corpus is a set of form pages embedded in the form-page model, ready to
// cluster.
type Corpus struct {
	model             *icafc.Model
	urls              []string
	weights           form.Weights
	retry             *Retry
	skipNonSearchable bool
	// Skipped lists input URLs dropped for having no searchable form
	// (only populated with Options.SkipNonSearchable).
	Skipped []string
}

// ErrNoSearchableForm is returned when a document contains no searchable
// form and SkipNonSearchable is off.
var ErrNoSearchableForm = form.ErrNoSearchableForm

// NewCorpus parses the documents, extracts their searchable forms and
// builds the two-space TF-IDF model.
func NewCorpus(docs []Document, opts ...Options) (*Corpus, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	w := o.Weights
	if w == (form.Weights{}) {
		w = form.DefaultWeights
	}
	c := &Corpus{weights: w}
	var fps []*form.FormPage
	for _, d := range docs {
		fp, err := form.Parse(d.URL, d.HTML, w)
		if err != nil {
			if errors.Is(err, form.ErrNoSearchableForm) && o.SkipNonSearchable {
				c.Skipped = append(c.Skipped, d.URL)
				continue
			}
			return nil, fmt.Errorf("cafc: %s: %w", d.URL, err)
		}
		fps = append(fps, fp)
		c.urls = append(c.urls, d.URL)
	}
	c.retry = o.Retry
	c.skipNonSearchable = o.SkipNonSearchable
	c.model = icafc.BuildMetrics(fps, o.UniformWeights, o.Metrics)
	c.model.Features = o.Features
	if o.C1 != 0 || o.C2 != 0 {
		c.model.C1, c.model.C2 = o.C1, o.C2
	}
	return c, nil
}

// Append grows the corpus in place with newly discovered form pages:
// the document-frequency tables absorb the new documents, each new page
// is embedded against the updated tables, and the compiled engine grows
// incrementally (existing packed vectors stay valid — term IDs are
// append-only). Existing pages keep the IDF weights of the corpus state
// they were embedded under; Reembed erases that staleness. Documents
// without a searchable form follow the corpus's SkipNonSearchable
// policy, exactly as NewCorpus would.
//
// Append mutates the corpus and must not race with concurrent readers;
// the live-directory layer (Live) builds each epoch on a copy and
// publishes it atomically instead.
func (c *Corpus) Append(docs []Document) (added int, err error) {
	var fps []*form.FormPage
	for _, d := range docs {
		fp, perr := form.Parse(d.URL, d.HTML, c.weights)
		if perr != nil {
			if errors.Is(perr, form.ErrNoSearchableForm) && c.skipNonSearchable {
				c.Skipped = append(c.Skipped, d.URL)
				continue
			}
			return 0, fmt.Errorf("cafc: %s: %w", d.URL, perr)
		}
		fps = append(fps, fp)
	}
	for _, fp := range fps {
		c.urls = append(c.urls, fp.URL)
	}
	c.model.AppendPages(fps)
	return len(fps), nil
}

// Reembed recomputes every page's TF-IDF vectors against the current
// document-frequency tables, erasing the stale-IDF approximation Append
// accumulates. A corpus grown by Append and then reembedded is
// equivalent to one built by a single NewCorpus call over the same
// documents. Pages without a term record (loaded from a version 1 or 2
// snapshot) keep their stored vectors.
func (c *Corpus) Reembed() { c.model.ReembedAll() }

// Len returns the number of admitted form pages.
func (c *Corpus) Len() int { return len(c.urls) }

// URLs returns the admitted form-page URLs in input order.
func (c *Corpus) URLs() []string { return append([]string(nil), c.urls...) }

// Similarity returns the form-page similarity (Equation 3) between two
// admitted pages by index.
func (c *Corpus) Similarity(i, j int) float64 { return c.model.PairSim(i, j) }

// Clustering is the result of a clustering run.
type Clustering struct {
	// Assign maps each admitted URL to its cluster id.
	Assign map[string]int
	// Clusters lists the member URLs of each cluster.
	Clusters [][]string
	// TopTerms gives, per cluster, the highest-weighted page-content
	// terms of its centroid — useful for labelling clusters.
	TopTerms [][]string
	// Degraded is empty for a clean run; otherwise it names why
	// CAFC-CH completed with partial hub evidence
	// ("backlink_budget_exhausted", "backlink_breaker_open",
	// "backlink_unavailable"). The clusters remain valid — the seed
	// shortfall was filled randomly, as CAFC-C would.
	Degraded string
}

// newClustering converts an internal result.
func (c *Corpus) newClustering(res cluster.Result) *Clustering {
	out := &Clustering{Assign: make(map[string]int, len(c.urls))}
	out.Clusters = make([][]string, res.K)
	for i, cl := range res.Assign {
		if cl < 0 {
			continue
		}
		out.Assign[c.urls[i]] = cl
		out.Clusters[cl] = append(out.Clusters[cl], c.urls[i])
	}
	members := cluster.Members(res.Assign, res.K)
	// One accumulator labels every cluster: newClustering runs on each
	// live publish, and the per-cluster map-vector centroid it used to
	// build cost ~38% of publish CPU at paper scale.
	acc := vector.NewAccumulator(0)
	for cl := 0; cl < res.K; cl++ {
		out.TopTerms = append(out.TopTerms, c.model.CentroidTopTerms(members[cl], 5, acc))
	}
	return out
}

// ClusterC runs CAFC-C (Algorithm 1): k-means with random seeds and the
// paper's stop criterion. seed drives the random seed selection; equal
// seeds give identical runs.
func (c *Corpus) ClusterC(k int, seed int64) *Clustering {
	res := icafc.CAFCC(c.model, k, rand.New(rand.NewSource(seed+1)))
	return c.newClustering(res)
}

// BacklinkFunc answers a link:-style query: the URLs of pages linking to
// the given URL.
type BacklinkFunc = hub.BacklinkFunc

// ClusterCH runs CAFC-CH (Algorithm 2): hub clusters are derived from
// backlinks (with the site-root fallback from roots, which may be nil),
// filtered to the default minimum cardinality, greedily spread with
// farthest-first selection, and used to seed the k-means refinement.
func (c *Corpus) ClusterCH(k int, backlinks BacklinkFunc, roots map[string]string, seed int64) *Clustering {
	return c.ClusterCHMinCard(k, backlinks, roots, 8, seed)
}

// ClusterCHMinCard is ClusterCH with an explicit minimum hub-cluster
// cardinality (the Figure 3 knob). With Options.Retry set, the backlink
// queries run under the retry/breaker/budget policy and the result's
// Degraded field reports any fallback taken.
func (c *Corpus) ClusterCHMinCard(k int, backlinks BacklinkFunc, roots map[string]string, minCard int, seed int64) *Clustering {
	if r := c.retry; r != nil {
		rb := &webgraph.ResilientBacklinks{
			Query: backlinks,
			Policy: retry.Policy{
				MaxAttempts: r.MaxAttempts,
				BaseDelay:   r.BaseDelay,
				MaxDelay:    r.MaxDelay,
				Seed:        r.Seed,
			},
			Budget:  r.Budget,
			Breaker: retry.NewBreaker(r.BreakerThreshold, r.BreakerCooldown, nil, c.model.Metrics, "backlink"),
			Metrics: c.model.Metrics,
		}
		backlinks = rb.Backlinks
	}
	clusters, stats := hub.BuildWith(c.urls, roots, backlinks, hub.BuildOptions{Metrics: c.model.Metrics})
	res := icafc.CAFCCH(c.model, k, clusters, minCard, rand.New(rand.NewSource(seed+1)))
	cl := c.newClustering(res)
	cl.Degraded = stats.DegradedReason
	return cl
}

// ClusterHAC runs the hierarchical-agglomerative baseline cut at k
// clusters (average linkage).
func (c *Corpus) ClusterHAC(k int) *Clustering {
	res := icafc.HACResult(c.model, k, cluster.AverageLinkage)
	return c.newClustering(res)
}

// Quality evaluates a clustering against gold labels (URL -> class) with
// the paper's metrics. URLs missing from labels are ignored.
func (cl *Clustering) Quality(labels map[string]string) (entropy, fMeasure float64) {
	var assign []int
	var classes []string
	for u, c := range cl.Assign {
		lbl, ok := labels[u]
		if !ok {
			continue
		}
		assign = append(assign, c)
		classes = append(classes, lbl)
	}
	l := metrics.Labeling{Assign: assign, Classes: classes}
	return metrics.Entropy(l), metrics.FMeasure(l)
}

// Classifier assigns newly discovered form pages to existing, labelled
// clusters — the directory-maintenance application the paper's Section 5
// sketches: build the clusters once, label them, then classify new
// sources automatically.
type Classifier struct {
	inner   *icafc.Classifier
	weights form.Weights
}

// Classifier builds a nearest-centroid classifier from a clustering of
// this corpus. labels[i] names cluster i; when labels is nil the clusters
// are named by their top centroid terms.
func (c *Corpus) Classifier(cl *Clustering, labels []string) *Classifier {
	// Reconstruct the internal assignment from the URL mapping.
	assign := make([]int, len(c.urls))
	for i, u := range c.urls {
		if a, ok := cl.Assign[u]; ok {
			assign[i] = a
		} else {
			assign[i] = -1
		}
	}
	res := cluster.Result{Assign: assign, K: len(cl.Clusters)}
	if labels == nil {
		labels = make([]string, len(cl.Clusters))
		for i, terms := range cl.TopTerms {
			labels[i] = strings.Join(terms, " ")
		}
	}
	return &Classifier{
		inner:   icafc.NewClassifier(c.model, res, labels),
		weights: c.weights,
	}
}

// Prediction is one ranked classification outcome.
type Prediction struct {
	Cluster    int
	Label      string
	Similarity float64
}

// Classify parses a new document and assigns it to the nearest cluster.
// It fails when the document has no searchable form, and reports ok=false
// when the page shares no vocabulary with the corpus.
func (cf *Classifier) Classify(d Document) (Prediction, bool, error) {
	return classify(cf.inner, d, cf.weights)
}

// classify parses d and scores it straight from the parser's term
// lists: the serve path builds no FormPage it would throw away.
func classify(c *icafc.Classifier, d Document, w form.Weights) (Prediction, bool, error) {
	var (
		p  icafc.Prediction
		ok bool
	)
	err := form.Terms(d.HTML, w, func(fc, pc []vector.WeightedTerm) {
		p, ok = c.ClassifyTerms(fc, pc)
	})
	if err != nil {
		return Prediction{}, false, fmt.Errorf("cafc: %s: %w", d.URL, err)
	}
	return Prediction{Cluster: p.Cluster, Label: p.Label, Similarity: p.Similarity}, ok, nil
}

// Rank returns every cluster ordered by decreasing similarity to the
// document.
func (cf *Classifier) Rank(d Document) ([]Prediction, error) {
	fp, err := form.Parse(d.URL, d.HTML, cf.weights)
	if err != nil {
		return nil, fmt.Errorf("cafc: %s: %w", d.URL, err)
	}
	var out []Prediction
	for _, p := range cf.inner.Rank(fp) {
		out = append(out, Prediction{Cluster: p.Cluster, Label: p.Label, Similarity: p.Similarity})
	}
	return out, nil
}

// Labels returns the classifier's cluster names.
func (cf *Classifier) Labels() []string {
	return append([]string(nil), cf.inner.Labels...)
}

// KScore is one candidate cluster count with its silhouette quality.
type KScore = cluster.KScore

// SelectK searches the number of clusters in [kMin, kMax] with the
// silhouette criterion (an extension: the paper fixes k to its gold
// standard's eight domains, which a user organizing an unlabeled crawl
// does not know). It returns the best k and the full score curve.
func (c *Corpus) SelectK(kMin, kMax int, seed int64) (int, []KScore) {
	return cluster.BestK(c.model, kMin, kMax, 3, rand.New(rand.NewSource(seed+1)))
}
