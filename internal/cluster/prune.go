package cluster

import (
	"math"

	"cafc/internal/obs"
)

// PruneMode selects the k-means assignment kernel. All modes produce
// bit-identical Result.Assign, Iterations and Centroids — pruning only
// skips point×centroid similarity evaluations that provably cannot
// change the lowest-index argmax the exhaustive scan would pick.
type PruneMode int

const (
	// PruneAuto (the zero value) picks by corpus size: the exhaustive
	// kernel below pruneAutoMinPoints (10000) points, Hamerly at or
	// above it. String reports it as "hamerly", the kernel it resolves
	// to when no corpus size is known.
	PruneAuto PruneMode = iota
	// PruneOff runs the exhaustive reference kernel: every point scores
	// every centroid every round.
	PruneOff
	// PruneHamerly keeps one upper bound (distance to the assigned
	// centroid) and one lower bound (distance to the second-closest) per
	// point — O(n) extra state, one drift update per point per round.
	PruneHamerly
)

// pruneAutoMinPoints is the corpus size below which PruneAuto selects
// the exhaustive kernel instead of Hamerly. BENCH_scale.json supports
// only the upper side: at 20k pages Hamerly wins decisively (1178ms vs
// 1813ms, 3.4× fewer distances). Its 5k row does not support the
// threshold — Hamerly is faster there too (179ms vs 207ms, 1.67× fewer
// distances) — so the exhaustive choice below 10000 points rests on no
// recorded measurement. TestPruneAutoCrossover pins the selection on
// both sides.
const pruneAutoMinPoints = 10000

// resolve maps PruneAuto to the concrete default kernel, ignoring the
// size heuristic (String and callers without a corpus use this).
func (m PruneMode) resolve() PruneMode {
	if m == PruneAuto {
		return PruneHamerly
	}
	return m
}

// resolveFor maps PruneAuto to the concrete kernel for a corpus of n
// points: exhaustive below pruneAutoMinPoints (where bound maintenance
// costs more wall-clock than it saves, see the constant), Hamerly
// above. Explicit modes pass through — a caller that asks for a kernel
// gets that kernel at any size. Bit-identical either way, so the
// heuristic is purely a wall-clock decision.
func (m PruneMode) resolveFor(n int) PruneMode {
	if m == PruneAuto && n < pruneAutoMinPoints {
		return PruneOff
	}
	return m.resolve()
}

// String implements fmt.Stringer.
func (m PruneMode) String() string {
	switch m.resolve() {
	case PruneOff:
		return "off"
	default:
		return "hamerly"
	}
}

// The bounds work in chord distance d(a,b) = sqrt(2·(1-Sim(a,b))). For
// the cosine-style similarities every Space here exposes (dot products
// of implicitly concatenated unit vectors, clamped into [0,1], with the
// zero-norm convention Sim = 0), this is the Euclidean distance between
// the normalized points, so the triangle inequality holds and
// Hamerly bound maintenance is sound. Distance is only ever used
// for bounds; every actual assignment decision compares similarities
// with the exhaustive kernel's exact semantics.
func boundDist(sim float64) float64 {
	v := 2 * (1 - sim)
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// boundSlack is the absolute safety margin folded into every bound
// update: upper bounds are inflated and lower bounds deflated by it once
// per round. It is ~1e7× larger than the worst per-step floating-point
// rounding error on these O(1)-magnitude distances, so a prune decision
// can never be flipped by accumulated rounding — and it is small enough
// to erode no measurable pruning. The margin is also what makes exact
// similarity ties safe: a tie has zero distance gap, so no slack-deflated
// bound can ever prune a tied centroid, and the rescan resolves the tie
// with the exhaustive kernel's own lowest-index rule.
const boundSlack = 1e-9

// assigner is one k-means assignment kernel: called once per iteration
// to (re)assign every point, with per-shard move counts exactly like the
// historical inline loop. Implementations must be bit-identical to
// exhaustiveAssigner in every observable output.
type assigner interface {
	assign(cents []Point, assign, movedBy []int)
	assignedSims(cents []Point, assign []int) []float64
	distTotal() int64
	prunedTotal() int64
}

// newAssigner builds the kernel opts.Prune selects (PruneAuto resolving
// by corpus size). shards is the per-shard slot count (maxShards of the
// point range).
func newAssigner(s Space, k int, opts Options, shards int) assigner {
	b := newAssignerBase(s, k, opts, shards)
	switch opts.Prune.resolveFor(s.Len()) {
	case PruneOff:
		return &exhaustiveAssigner{b}
	default:
		return &hamerlyAssigner{assignerBase: b}
	}
}

// assignerBase carries what every kernel shares: the space, the
// centroid-index probe, per-shard similarity buffers, and per-shard
// work counters (similarity evaluations and bound-pruned points) that
// KMeans flushes to the metrics registry once per run.
type assignerBase struct {
	s       Space
	k       int
	workers int
	reg     *obs.Registry
	// dist and pruned are per-shard slots: workers only touch their own
	// index, the totals are reduced serially — instrumentation adds no
	// cross-shard traffic and stays bit-inert.
	dist   []int64
	pruned []int64
	// sims holds one all-centroid score buffer per shard; scratch is the
	// index's extra working memory, allocated on first index use.
	sims    [][]float64
	scratch [][]float64
}

func newAssignerBase(s Space, k int, opts Options, shards int) assignerBase {
	b := assignerBase{
		s:       s,
		k:       k,
		workers: opts.Workers,
		reg:     opts.Metrics,
		dist:    make([]int64, shards),
		pruned:  make([]int64, shards),
		sims:    make([][]float64, shards),
	}
	for i := range b.sims {
		b.sims[i] = make([]float64, k)
	}
	return b
}

func (b *assignerBase) distTotal() int64 {
	var t int64
	for _, v := range b.dist {
		t += v
	}
	return t
}

func (b *assignerBase) prunedTotal() int64 {
	var t int64
	for _, v := range b.pruned {
		t += v
	}
	return t
}

// index probes the space for the CentroidScorer capability and builds
// the postings index over the current centroids; nil means this round
// scores through plain Sim calls.
func (b *assignerBase) index(cents []Point) CentroidIndex {
	cs, ok := b.s.(CentroidScorer)
	if !ok {
		return nil
	}
	idx := cs.NewCentroidIndex(cents)
	if idx == nil {
		return nil
	}
	if b.scratch == nil {
		b.scratch = make([][]float64, len(b.sims))
		for i := range b.scratch {
			b.scratch[i] = make([]float64, idx.ScratchLen())
		}
	}
	return idx
}

// simOne scores point i against the single centroid c — through the
// index's dense-row path (O(point nnz)) when available, else one plain
// Sim merge join. Bit-identical either way (the CentroidIndex
// contract), so pruned kernels may mix it freely with full scans.
func (b *assignerBase) simOne(i, c int, cents []Point, idx CentroidIndex, shard int) float64 {
	if idx != nil {
		return idx.SimOne(b.scratch[shard], i, c)
	}
	return b.s.Sim(b.s.Point(i), cents[c])
}

// scanSims fills dst with point i's similarity to every centroid,
// through the index when available. Both paths produce bit-identical
// values (the CentroidScorer contract).
func (b *assignerBase) scanSims(i int, cents []Point, idx CentroidIndex, shard int, dst []float64) {
	if idx != nil {
		idx.Sims(dst, b.scratch[shard], i)
		return
	}
	p := b.s.Point(i)
	for c := range cents {
		dst[c] = b.s.Sim(p, cents[c])
	}
}

// scanPoint runs the exhaustive scan for point i with the reference
// kernel's exact comparison semantics — strict `>` left to right, so the
// winner is the lowest-index argmax — and also reports the runner-up
// similarity (the Hamerly lower bound).
func (b *assignerBase) scanPoint(i int, cents []Point, idx CentroidIndex, shard int) (best int, bestSim, second float64) {
	sims := b.sims[shard]
	b.scanSims(i, cents, idx, shard, sims)
	bestSim, second = -1.0, -1.0
	for c, sim := range sims {
		if sim > bestSim {
			best, bestSim, second = c, sim, bestSim
		} else if sim > second {
			second = sim
		}
	}
	return
}

// assignedSims returns every point's similarity to its assigned
// centroid in one sharded pass — the empty-cluster repair scan. Points
// without a valid assignment score the -1 sentinel so the farthest-point
// selection picks the first of them, matching the historical serial
// scan. Each empty cluster this round reuses the same array instead of
// rescanning the corpus (the repair cost is now one scan per round, not
// one per empty cluster).
func (b *assignerBase) assignedSims(cents []Point, assign []int) []float64 {
	out := make([]float64, len(assign))
	idx := b.index(cents)
	parallelRange(len(assign), b.workers, timedBody(b.reg, "kmeans_repair", func(start, end, shard int) {
		for i := start; i < end; i++ {
			c := assign[i]
			if c < 0 || c >= len(cents) {
				out[i] = -1
				continue
			}
			if idx != nil {
				sims := b.sims[shard]
				idx.Sims(sims, b.scratch[shard], i)
				out[i] = sims[c]
			} else {
				out[i] = b.s.Sim(b.s.Point(i), cents[c])
			}
			b.dist[shard]++
		}
	}))
	return out
}

// exhaustiveAssigner is the reference kernel: every point scores every
// centroid every round. It is also the semantic definition the pruned
// kernels are pinned against.
type exhaustiveAssigner struct {
	assignerBase
}

func (a *exhaustiveAssigner) assign(cents []Point, assign, movedBy []int) {
	idx := a.index(cents)
	parallelRange(len(assign), a.workers, timedBody(a.reg, "kmeans_assign", func(start, end, shard int) {
		for i := start; i < end; i++ {
			best, _, _ := a.scanPoint(i, cents, idx, shard)
			a.dist[shard] += int64(a.k)
			if assign[i] != best {
				movedBy[shard]++
				assign[i] = best
			}
		}
	}))
}

// hamerlyAssigner maintains, per point, an upper bound u on the distance
// to its assigned centroid and a lower bound l on the distance to every
// other centroid. After a round in which centroid c moved by drift(c),
// u grows by drift(assigned) and l shrinks by max drift; while u < l the
// assigned centroid is provably still the strict nearest and the whole
// point×centroid scan is skipped. The inequality is kept strict — and
// every bound padded by boundSlack — so a pruned round can never hide a
// centroid the exhaustive kernel would have tied or preferred; any point
// whose bounds overlap is rescanned with the exhaustive scan itself.
type hamerlyAssigner struct {
	assignerBase
	started bool
	u, l    []float64
	// prev snapshots the centroids as scored this round; next round's
	// drift is measured against it (recompute and empty-cluster repair
	// both move centroids between rounds).
	prev  []Point
	drift []float64
}

func (a *hamerlyAssigner) assign(cents []Point, assign, movedBy []int) {
	n := len(assign)
	idx := a.index(cents)
	if !a.started {
		a.u = make([]float64, n)
		a.l = make([]float64, n)
		a.drift = make([]float64, a.k)
		parallelRange(n, a.workers, timedBody(a.reg, "kmeans_assign", func(start, end, shard int) {
			for i := start; i < end; i++ {
				best, bestSim, second := a.scanPoint(i, cents, idx, shard)
				a.dist[shard] += int64(a.k)
				a.u[i] = boundDist(bestSim)
				a.l[i] = boundDist(second)
				if assign[i] != best {
					movedBy[shard]++
					assign[i] = best
				}
			}
		}))
		a.started = true
		a.snapshot(cents)
		return
	}
	maxDrift := 0.0
	for c := range cents {
		a.drift[c] = boundDist(a.s.Sim(a.prev[c], cents[c])) + boundSlack
		if a.drift[c] > maxDrift {
			maxDrift = a.drift[c]
		}
	}
	a.dist[0] += int64(a.k)
	parallelRange(n, a.workers, timedBody(a.reg, "kmeans_assign", func(start, end, shard int) {
		for i := start; i < end; i++ {
			ai := assign[i]
			u := a.u[i] + a.drift[ai]
			l := a.l[i] - maxDrift
			if u < l {
				a.u[i], a.l[i] = u, l
				a.pruned[shard]++
				continue
			}
			// Tighten the upper bound with one exact similarity before
			// paying for the full rescan.
			u = boundDist(a.simOne(i, ai, cents, idx, shard))
			a.dist[shard]++
			if u < l {
				a.u[i], a.l[i] = u, l
				a.pruned[shard]++
				continue
			}
			best, bestSim, second := a.scanPoint(i, cents, idx, shard)
			a.dist[shard] += int64(a.k)
			a.u[i] = boundDist(bestSim)
			a.l[i] = boundDist(second)
			if assign[i] != best {
				movedBy[shard]++
				assign[i] = best
			}
		}
	}))
	a.snapshot(cents)
}

func (a *hamerlyAssigner) snapshot(cents []Point) {
	a.prev = append(a.prev[:0], cents...)
}
