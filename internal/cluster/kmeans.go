package cluster

import (
	"math/rand"
	"time"

	"cafc/internal/obs"
)

// Options configures KMeans.
type Options struct {
	// MaxIter bounds the number of assign/recompute rounds. Zero means
	// the default of 100.
	MaxIter int
	// MoveFrac is the stop criterion: iteration stops once fewer than
	// MoveFrac of the points change cluster in a round. The paper stops
	// below 10%; zero means that default.
	MoveFrac float64
	// Rand supplies randomness for seed selection and tie breaking. Nil
	// means a fixed-seed source (deterministic runs).
	Rand *rand.Rand
	// Workers sizes the worker pool for the parallel kernels. Zero means
	// one worker per CPU (runtime.GOMAXPROCS); 1 forces a serial run.
	// Results are bit-identical for every worker count: sharding is
	// fixed, workers write disjoint index-addressed slots, and no
	// floating-point reduction is reassociated across points.
	Workers int
	// Prune selects the assignment kernel. The zero value (PruneAuto)
	// picks by corpus size: the exhaustive kernel below
	// pruneAutoMinPoints, Hamerly-style bound pruning above; PruneOff
	// forces the exhaustive reference kernel. Every mode returns
	// bit-identical results — see PruneMode.
	Prune PruneMode
	// Metrics, when non-nil, receives convergence telemetry (moved
	// fraction per iteration, phase timings, empty-cluster repairs) and
	// parallel-kernel shard utilization. Nil disables instrumentation
	// entirely; assignments are bit-identical either way, because the
	// instrumentation only observes the run.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.MoveFrac == 0 {
		o.MoveFrac = 0.10
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
	return o
}

// Result is the outcome of a clustering run.
type Result struct {
	// Assign maps each object index to its cluster in [0, K).
	Assign []int
	// K is the number of clusters.
	K int
	// Iterations is the number of assignment rounds performed.
	Iterations int
	// Centroids holds the final cluster representatives.
	Centroids []Point
}

// MembersOf returns per-cluster member lists.
func (r *Result) MembersOf() [][]int { return Members(r.Assign, r.K) }

// KMeans clusters the space into k groups. seeds, when non-nil, provides
// the initial clusters as member-index lists (Algorithm 2 passes hub
// clusters here); otherwise k distinct random singleton seeds are drawn
// (Algorithm 1 line 2). Empty seed groups are reseeded from random points.
func KMeans(s Space, k int, seeds [][]int, opts Options) Result {
	opts = opts.withDefaults()
	n := s.Len()
	if k <= 0 {
		return Result{Assign: make([]int, 0), K: 0}
	}
	if k > n {
		k = n
	}
	centroids := initialCentroids(s, k, seeds, opts.Rand)

	// Convergence telemetry: all handles are nil (no-op) without a
	// registry, and nothing below is measured per point — only per
	// iteration — so the instrumented hot path is unchanged.
	var (
		movedGauge    *obs.Gauge
		assignHist    *obs.Histogram
		recomputeHist *obs.Histogram
		iterCounter   *obs.Counter
		repairCounter *obs.Counter
	)
	if reg := opts.Metrics; reg != nil {
		reg.Counter("kmeans_runs_total").Inc()
		movedGauge = reg.Gauge("kmeans_moved_fraction")
		assignHist = reg.Histogram("kmeans_assign_seconds", obs.DurationBuckets)
		recomputeHist = reg.Histogram("kmeans_recompute_seconds", obs.DurationBuckets)
		iterCounter = reg.Counter("kmeans_iterations_total")
		repairCounter = reg.Counter("kmeans_empty_repairs_total")
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	iter := 0
	movedBy := make([]int, maxShards(n, opts.Workers))
	// The assignment kernel (exhaustive or bound-pruned, per
	// opts.Prune) owns the point×centroid scans; all kernels shard over
	// points exactly like the historical inline loop and are pinned
	// bit-identical to it.
	asg := newAssigner(s, k, opts, len(movedBy))
	var repairSims []float64 // lazily computed, once per round at most
	for ; iter < opts.MaxIter; iter++ {
		iterCounter.Inc()
		// Assignment (Algorithm 1 line 4), sharded over points. Each
		// point's nearest-centroid scan is independent; workers count
		// moves in per-shard slots reduced serially below.
		for i := range movedBy {
			movedBy[i] = 0
		}
		var t0 time.Time
		if assignHist != nil {
			t0 = time.Now()
		}
		asg.assign(centroids, assign, movedBy)
		assignHist.ObserveSince(t0)
		moved := 0
		for _, m := range movedBy {
			moved += m
		}
		if n > 0 {
			movedGauge.Set(float64(moved) / float64(n))
		}
		// Recompute centroids (Algorithm 1 line 5), sharded over
		// clusters — per-index work is a whole centroid, so fan out
		// even for small k.
		if recomputeHist != nil {
			t0 = time.Now()
		}
		members := Members(assign, k)
		parallelRangeMin(k, opts.Workers, 2, timedBody(opts.Metrics, "kmeans_recompute", func(start, end, _ int) {
			for c := start; c < end; c++ {
				if len(members[c]) > 0 {
					centroids[c] = s.Centroid(members[c])
				}
			}
		}))
		recomputeHist.ObserveSince(t0)
		// Repair empty clusters: reseed each from the point farthest from
		// its assigned centroid, a standard k-means repair. One sharded
		// scan computes every point's similarity to its assigned centroid
		// and all empty clusters this round select from it (reseeding
		// cluster c cannot change any scanned similarity, because an
		// empty cluster has no assigned points) — the old code rescanned
		// the whole corpus once per empty cluster. `taken` tracks points
		// already consumed so two clusters emptying together cannot
		// reseed to the same point (which would produce duplicate
		// centroids).
		var taken map[int]bool
		for c := 0; c < k; c++ {
			if len(members[c]) != 0 {
				continue
			}
			if taken == nil {
				taken = make(map[int]bool, k)
			}
			if repairSims == nil {
				repairSims = asg.assignedSims(centroids, assign)
			}
			idx := farthestIdx(repairSims, taken)
			taken[idx] = true
			centroids[c] = s.Point(idx)
			repairCounter.Inc()
			moved++ // force another round
		}
		repairSims = nil
		if float64(moved) < opts.MoveFrac*float64(n) {
			iter++
			break
		}
	}
	// Work counters flush once per run: kernels accumulate in per-shard
	// slots, so the hot loops never touch an atomic and a nil registry
	// costs nothing.
	if reg := opts.Metrics; reg != nil {
		reg.Counter("distance_computations_total").Add(asg.distTotal())
		reg.Counter("kmeans_pruned_total").Add(asg.prunedTotal())
	}
	return Result{Assign: assign, K: k, Iterations: iter, Centroids: centroids}
}

// initialCentroids builds the starting centroids from explicit seed groups
// or random singletons.
func initialCentroids(s Space, k int, seeds [][]int, rng *rand.Rand) []Point {
	centroids := make([]Point, k)
	used := 0
	for i := 0; i < len(seeds) && used < k; i++ {
		if len(seeds[i]) > 0 {
			centroids[used] = s.Centroid(seeds[i])
			used++
		}
	}
	if used < k {
		for _, i := range rng.Perm(s.Len()) {
			if used == k {
				break
			}
			centroids[used] = s.Point(i)
			used++
		}
	}
	return centroids
}

// farthestIdx picks the point least similar to its assigned centroid
// from a precomputed assigned-similarity scan (see
// assignerBase.assignedSims), skipping points in `exclude` (already
// consumed as reseeds this round). Strict `<` keeps the historical
// lowest-index tie break, and the -1 sentinel for unassigned points
// sorts below every real similarity, so the first unassigned point wins
// — exactly the old per-cluster rescan's behavior, minus the rescans.
func farthestIdx(sims []float64, exclude map[int]bool) int {
	worst, worstSim := -1, 2.0
	for i, sim := range sims {
		if exclude[i] {
			continue
		}
		if sim < worstSim {
			worst, worstSim = i, sim
		}
	}
	if worst < 0 {
		// Every point excluded (more empty clusters than points, which
		// k <= n rules out in practice); fall back to point 0.
		return 0
	}
	return worst
}

// KMeansPlusPlusSeeds draws k seed indices with the k-means++ D²-sampling
// scheme (an extension beyond the paper, used as an extra baseline). The
// returned value is in the seeds format KMeans accepts: k singleton groups.
func KMeansPlusPlusSeeds(s Space, k int, rng *rand.Rand) [][]int {
	n := s.Len()
	if k > n {
		k = n
	}
	if k <= 0 || n == 0 {
		return nil
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	chosen := []int{rng.Intn(n)}
	d2 := make([]float64, n)
	for len(chosen) < k {
		var total float64
		for i := 0; i < n; i++ {
			// Distance to the nearest chosen seed.
			best := 1.0
			for _, c := range chosen {
				d := Dist(s.Sim(s.Point(i), s.Point(c)))
				if d < best {
					best = d
				}
			}
			d2[i] = best * best
			total += d2[i]
		}
		if total == 0 {
			// All points coincide with seeds; fill arbitrarily.
			chosen = append(chosen, rng.Intn(n))
			continue
		}
		r := rng.Float64() * total
		pick := n - 1
		for i := 0; i < n; i++ {
			r -= d2[i]
			if r <= 0 {
				pick = i
				break
			}
		}
		chosen = append(chosen, pick)
	}
	out := make([][]int, len(chosen))
	for i, c := range chosen {
		out[i] = []int{c}
	}
	return out
}
