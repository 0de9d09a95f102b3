// Package quality is the live directory's online quality monitor: it
// watches the stream of published model epochs and answers "is the
// clustering holding up right now?" with the same yardsticks the paper
// uses offline, cheap enough to run on every epoch swap.
//
// The monitor keeps a seeded reservoir sample of the corpus (so the
// per-epoch cost is bounded no matter how large the directory grows),
// caches the similarities between sampled pages (so an epoch rescores
// only the slots it replaced), and computes, per epoch: the sampled
// silhouette coefficient, the per-cluster size distribution and its
// skew, the cosine drift of each centroid against the previous epoch
// ("churn"), and — when gold labels are available, as with webgen
// corpora — the paper's entropy and F-measure. Results are published as
// gauges on an obs.Registry and retained in a fixed ring of Snapshots
// for /debug/quality.
//
// The monitor only observes: it never mutates the model or the
// clustering, and attaching one (with or without a registry) leaves
// published epochs bit-identical — the same inertness contract as the
// rest of internal/obs. The reservoir is driven by a seeded RNG over
// the page-index sequence, so two monitors fed the same corpus growth
// hold identical samples regardless of how ingestion was batched.
package quality

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"cafc/internal/cluster"
	"cafc/internal/metrics"
	"cafc/internal/obs"
)

// Config configures a Monitor. Zero values select the defaults noted
// per field.
type Config struct {
	// SampleSize caps the reservoir (0 = 256). The monitor caches the
	// SampleSize² similarities between reservoir slots (8·SampleSize²
	// bytes, 512 KiB at the default), so an epoch costs O(SampleSize ×
	// replaced slots) similarities. The first epoch and every Rebuilt
	// one fill the whole cache, through the space's centroid index when
	// it has one (one indexed pass per slot instead of SampleSize
	// merge joins).
	SampleSize int
	// Seed drives the reservoir RNG. Fixed seed + same page sequence =
	// same sample, independent of batch boundaries.
	Seed int64
	// RingSize bounds the retained snapshot history (0 = 64).
	RingSize int
	// Labels, when non-nil, maps page URLs to gold classes; labeled
	// epochs additionally report entropy and F-measure over the labeled
	// pages.
	Labels map[string]string
	// Metrics receives the quality gauges (nil disables them; snapshots
	// are still recorded).
	Metrics *obs.Registry
}

// Epoch is the monitor's view of one published model state. Everything
// referenced must be frozen (published epochs are).
//
// The monitor caches similarities between sampled pages across epochs,
// so Space must score every page that existed in the previous epoch
// exactly as the previous epoch's Space did, until an epoch with
// Rebuilt set (which refreshes the whole cache). The live path meets
// this: appending pages leaves earlier packed vectors untouched, and
// only a full re-cluster, which sets Rebuilt, re-embeds them.
type Epoch struct {
	// Seq is the epoch number.
	Seq int64
	// Space scores similarities (the epoch's model). See the contract
	// above.
	Space cluster.Space
	// Assign maps page index to cluster (-1 = unassigned).
	Assign []int
	// K is the cluster count.
	K int
	// Centroids are the epoch's cluster representatives.
	Centroids []cluster.Point
	// Rebuilt marks full re-cluster epochs: the pages may have been
	// re-embedded, so every cached similarity is recomputed.
	Rebuilt bool
	// URL returns the page URL by index; may be nil when no labels are
	// configured.
	URL func(i int) string
}

// Snapshot is one epoch's quality measurement — the ring element served
// at /debug/quality.
type Snapshot struct {
	Epoch   int64     `json:"epoch"`
	Time    time.Time `json:"time"`
	Pages   int       `json:"pages"`
	K       int       `json:"k"`
	Rebuilt bool      `json:"rebuilt"`

	// SampleSize is the number of reservoir pages the silhouette was
	// computed over.
	SampleSize int `json:"sample_size"`
	// Silhouette is the mean silhouette coefficient of the sample
	// (1 = tight and separated, ~0 = overlapping).
	Silhouette float64 `json:"silhouette"`

	// ClusterSizes is the per-cluster member count, index = cluster id.
	ClusterSizes []int `json:"cluster_sizes"`
	// MaxShare is the largest cluster's fraction of the corpus.
	MaxShare float64 `json:"max_share"`
	// Skew is max cluster size over mean non-empty cluster size
	// (1 = perfectly balanced).
	Skew float64 `json:"skew"`
	// EmptyClusters counts clusters with no members.
	EmptyClusters int `json:"empty_clusters"`

	// ChurnMean and ChurnMax are the cosine drift (1 - similarity) of
	// this epoch's centroids against the previous epoch's, averaged and
	// worst-case. Zero on the first observed epoch.
	ChurnMean float64 `json:"centroid_churn_mean"`
	ChurnMax  float64 `json:"centroid_churn_max"`

	// Labeled is the number of pages with gold labels; Entropy and
	// FMeasure are only meaningful when it is non-zero.
	Labeled  int     `json:"labeled,omitempty"`
	Entropy  float64 `json:"entropy,omitempty"`
	FMeasure float64 `json:"f_measure,omitempty"`
}

// Monitor consumes epochs and maintains the reservoir, the gauges and
// the snapshot ring. Safe for concurrent use, though epochs are
// expected to arrive from a single publisher goroutine.
type Monitor struct {
	mu   sync.Mutex
	cfg  Config
	rng  *rand.Rand
	seen int   // pages offered to the reservoir so far
	res  []int // reservoir: page indices, insertion order

	// sims caches Space.Sim between reservoir slots, SampleSize² cells
	// row-major by slot (allocated on the first fill). For clean slots
	// i and j, sims[i*SampleSize+j] == Sim(Point(res[i]), Point(res[j]))
	// in the current epoch's space. dirty flags the slots filled or
	// replaced since the last fill, whose row and column are stale.
	sims  []float64
	dirty []bool

	prevCentroids []cluster.Point

	ring []Snapshot
	next int
	n    int
}

// New builds a monitor.
func New(cfg Config) *Monitor {
	if cfg.SampleSize <= 0 {
		cfg.SampleSize = 256
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 64
	}
	return &Monitor{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed + 1)),
		dirty: make([]bool, cfg.SampleSize),
		ring:  make([]Snapshot, cfg.RingSize),
	}
}

// ObserveEpoch measures one published epoch: the reservoir absorbs any
// new pages, the quality metrics are computed over the sample and the
// assignment, the gauges update, and the snapshot is recorded. Returns
// the snapshot. now stamps the snapshot (callers pass time.Now();
// tests pass a fixed time for byte-stable output).
func (m *Monitor) ObserveEpoch(e Epoch, now time.Time) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()

	n := e.Space.Len()
	// Reservoir sampling (algorithm R) over the page-index sequence.
	// Pages are append-only across epochs — a rebuild re-embeds but
	// never reorders — so indices remain stable identities. Every slot
	// filled or replaced is dirty, which covers the whole reservoir on
	// the first observation.
	for ; m.seen < n; m.seen++ {
		if len(m.res) < m.cfg.SampleSize {
			m.dirty[len(m.res)] = true
			m.res = append(m.res, m.seen)
			continue
		}
		if j := m.rng.Intn(m.seen + 1); j < m.cfg.SampleSize {
			m.res[j] = m.seen
			m.dirty[j] = true
		}
	}
	if e.Rebuilt {
		for i := range m.res {
			m.dirty[i] = true
		}
	}
	m.fill(e.Space)

	snap := Snapshot{
		Epoch:      e.Seq,
		Time:       now,
		Pages:      n,
		K:          e.K,
		Rebuilt:    e.Rebuilt,
		SampleSize: len(m.res),
	}
	snap.Silhouette = m.silhouette(e.Assign, e.K)
	m.sizeStats(&snap, e)
	m.churn(&snap, e)
	m.labelQuality(&snap, e)
	m.prevCentroids = append(m.prevCentroids[:0], e.Centroids...)

	m.publishGauges(&snap)
	m.ring[m.next] = snap
	m.next = (m.next + 1) % len(m.ring)
	if m.n < len(m.ring) {
		m.n++
	}
	return snap
}

// sizeStats fills the cluster-size distribution and its skew measures.
func (m *Monitor) sizeStats(s *Snapshot, e Epoch) {
	sizes := cluster.Sizes(e.Assign, e.K)
	s.ClusterSizes = sizes
	total, max, nonEmpty := 0, 0, 0
	for _, sz := range sizes {
		total += sz
		if sz > max {
			max = sz
		}
		if sz > 0 {
			nonEmpty++
		} else {
			s.EmptyClusters++
		}
	}
	if total > 0 {
		s.MaxShare = float64(max) / float64(total)
	}
	if nonEmpty > 0 && total > 0 {
		s.Skew = float64(max) / (float64(total) / float64(nonEmpty))
	}
}

// churn scores each centroid against its predecessor: drift is
// 1 - sim, the chord distance the clustering kernels use. Comparable
// across epochs because term interning is append-only — packed
// centroids from the previous model remain valid points in the next.
func (m *Monitor) churn(s *Snapshot, e Epoch) {
	k := len(e.Centroids)
	if len(m.prevCentroids) < k {
		k = len(m.prevCentroids)
	}
	if k == 0 {
		return
	}
	var sum float64
	for c := 0; c < k; c++ {
		d := cluster.Dist(e.Space.Sim(m.prevCentroids[c], e.Centroids[c]))
		sum += d
		if d > s.ChurnMax {
			s.ChurnMax = d
		}
	}
	s.ChurnMean = sum / float64(k)
}

// labelQuality computes the paper's entropy and F-measure over the
// labeled pages, when labels are configured.
func (m *Monitor) labelQuality(s *Snapshot, e Epoch) {
	if len(m.cfg.Labels) == 0 || e.URL == nil {
		return
	}
	var assign []int
	var classes []string
	for i, c := range e.Assign {
		if c < 0 {
			continue
		}
		lbl, ok := m.cfg.Labels[e.URL(i)]
		if !ok {
			continue
		}
		assign = append(assign, c)
		classes = append(classes, lbl)
	}
	s.Labeled = len(assign)
	if s.Labeled == 0 {
		return
	}
	l := metrics.Labeling{Assign: assign, Classes: classes}
	s.Entropy = metrics.Entropy(l)
	s.FMeasure = metrics.FMeasure(l)
}

// publishGauges mirrors the snapshot into the registry (nil-safe).
func (m *Monitor) publishGauges(s *Snapshot) {
	reg := m.cfg.Metrics
	reg.Gauge("quality_silhouette").Set(s.Silhouette)
	reg.Gauge("quality_sample_size").Set(float64(s.SampleSize))
	reg.Gauge("quality_max_share").Set(s.MaxShare)
	reg.Gauge("quality_cluster_skew").Set(s.Skew)
	reg.Gauge("quality_empty_clusters").Set(float64(s.EmptyClusters))
	reg.Gauge("quality_centroid_churn", "agg", "mean").Set(s.ChurnMean)
	reg.Gauge("quality_centroid_churn", "agg", "max").Set(s.ChurnMax)
	if s.Labeled > 0 {
		reg.Gauge("quality_entropy").Set(s.Entropy)
		reg.Gauge("quality_f_measure").Set(s.FMeasure)
		reg.Gauge("quality_labeled_pages").Set(float64(s.Labeled))
	}
}

// Latest returns the most recent snapshot (ok=false before the first
// epoch).
func (m *Monitor) Latest() (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n == 0 {
		return Snapshot{}, false
	}
	i := m.next - 1
	if i < 0 {
		i += len(m.ring)
	}
	return m.ring[i], true
}

// Snapshots returns the retained history, oldest first.
func (m *Monitor) Snapshots() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, 0, m.n)
	start := m.next - m.n
	if start < 0 {
		start += len(m.ring)
	}
	for i := 0; i < m.n; i++ {
		out = append(out, m.ring[(start+i)%len(m.ring)])
	}
	return out
}

// Sample returns the current reservoir page indices in ascending order
// (a copy) — exposed for the determinism tests and for debugging.
func (m *Monitor) Sample() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]int(nil), m.res...)
	sort.Ints(out)
	return out
}

// fill recomputes the cached cells of every dirty slot a: row a, and
// column a of the clean rows. Cell (i, j) always holds Sim(P_i, P_j) in
// that argument order, so the cache matches a direct computation for
// any space, symmetric or not. With d dirty slots of r filled ones that
// is d(2r−d) Sim calls. The dirty slots shard across CPUs, and every
// cell has exactly one writer: a dirty row belongs to its slot, and a
// clean row's cell in column a belongs to slot a.
//
// When every slot is dirty (the first observation, and every Rebuilt
// epoch) and the space is a cluster.CentroidScorer, the reservoir's own
// points are indexed as the "centroids" and row a is one Sims pass for
// page res[a]: by the scorer contract, entry j equals Sim(P_a, P_j) bit
// for bit, so the cache holds the same cells for a fraction of the
// merge joins. A partial fill keeps the per-cell path, whose cost an
// index per epoch would not repay.
func (m *Monitor) fill(s cluster.Space) {
	r, stride := len(m.res), m.cfg.SampleSize
	var dirty []int
	for a, d := range m.dirty[:r] {
		if d {
			dirty = append(dirty, a)
		}
	}
	if len(dirty) == 0 {
		return
	}
	if m.sims == nil {
		m.sims = make([]float64, stride*stride)
	}
	pts := make([]cluster.Point, r)
	for i, page := range m.res {
		pts[i] = s.Point(page)
	}
	var ix cluster.CentroidIndex
	if cs, ok := s.(cluster.CentroidScorer); ok && len(dirty) == r {
		ix = cs.NewCentroidIndex(pts)
	}
	if ix != nil {
		cluster.ParallelRange(r, 0, func(lo, hi, _ int) {
			scratch := make([]float64, ix.ScratchLen())
			for a := lo; a < hi; a++ {
				ix.Sims(m.sims[a*stride:a*stride+r], scratch, m.res[a])
			}
		})
	} else {
		cluster.ParallelRange(len(dirty), 0, func(lo, hi, _ int) {
			for _, a := range dirty[lo:hi] {
				row := m.sims[a*stride : a*stride+r]
				for j := range row {
					row[j] = s.Sim(pts[a], pts[j])
				}
				for i := 0; i < r; i++ {
					if !m.dirty[i] {
						m.sims[i*stride+a] = s.Sim(pts[i], pts[a])
					}
				}
			}
		})
	}
	for _, a := range dirty {
		m.dirty[a] = false
	}
}

// silhouette is the silhouette coefficient restricted to the sample:
// cluster.Silhouette over the reservoir slots, reading similarities
// from the cache. Pages beyond the assignment count as unassigned, so
// they score nothing.
func (m *Monitor) silhouette(assign []int, k int) float64 {
	sub := make([]int, len(m.res))
	for slot, page := range m.res {
		sub[slot] = -1
		if page < len(assign) {
			sub[slot] = assign[page]
		}
	}
	return cluster.Silhouette(cachedSims{sims: m.sims, stride: m.cfg.SampleSize, n: len(m.res)}, sub, k)
}

// cachedSims views the reservoir as a space of its own: object i is
// slot i, and Sim reads the monitor's cache.
type cachedSims struct {
	sims   []float64
	stride int
	n      int
}

func (v cachedSims) Len() int { return v.n }

func (v cachedSims) Point(i int) cluster.Point { return i }

func (v cachedSims) Sim(a, b cluster.Point) float64 { return v.sims[a.(int)*v.stride+b.(int)] }

// Centroid is never called: cluster.Silhouette only compares points.
func (v cachedSims) Centroid([]int) cluster.Point {
	panic("quality: the cached sample space has no centroids")
}
