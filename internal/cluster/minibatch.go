package cluster

// Mini-batch k-means (Sculley, WWW 2010, adapted to similarity spaces):
// instead of visiting every point every iteration, each round samples a
// fixed-size batch, assigns only the batch to the nearest centroids, and
// nudges each receiving centroid toward its batch members with a
// per-centroid learning rate that decays as the centroid absorbs more
// samples. Rebuild cost becomes O(rounds · batch · k) plus one final
// full assignment pass, instead of O(iterations · corpus · k) — the
// property the streaming layer's drift-triggered re-cluster path needs
// once the corpus stops fitting in a full k-means budget.
//
// The update here aggregates per round: a centroid that received b batch
// members moves toward their mean by η = b / count(c), where count(c) is
// the total samples the centroid has ever absorbed. This is the batched
// form of Sculley's per-point update (equal total step mass, one Blend
// per centroid per round instead of one per point) and needs only two
// Space capabilities: Centroid over the batch members and Blender for
// the convex combination. Spaces without Blender fall back to full
// KMeans.

// Blender is an optional Space capability: the convex combination
// (1−t)·a + t·b over centroid representatives. CompiledSpace and
// cafc.Model implement it on packed vectors.
type Blender interface {
	Space
	Blend(a, b Point, t float64) Point
}

// MiniBatch configures MiniBatchKMeans. The zero value of each field
// selects the default noted per field.
type MiniBatch struct {
	// BatchSize is the number of points sampled per round (0 = 1024,
	// clamped to the corpus size). Sampling is with replacement, from
	// Options.Rand — fixed seed ⇒ deterministic runs.
	BatchSize int
	// Rounds is the number of sampled update rounds (0 = 40).
	Rounds int
}

func (m MiniBatch) withDefaults() MiniBatch {
	if m.BatchSize == 0 {
		m.BatchSize = 1024
	}
	if m.Rounds == 0 {
		m.Rounds = 40
	}
	return m
}

// MiniBatchKMeans clusters the space into k groups with sampled
// mini-batch updates, then runs one full assignment pass (through the
// exact kernel Options.Prune selects) to produce the final Result over
// every point. seeds, when non-nil, provides initial clusters exactly
// as KMeans accepts them. Deterministic for a fixed Options.Rand seed.
// Falls back to full KMeans when the space does not implement Blender.
func MiniBatchKMeans(s Space, k int, seeds [][]int, opts Options, mb MiniBatch) Result {
	bl, ok := s.(Blender)
	if !ok {
		return KMeans(s, k, seeds, opts)
	}
	opts = opts.withDefaults()
	mb = mb.withDefaults()
	n := s.Len()
	if k <= 0 {
		return Result{Assign: make([]int, 0), K: 0}
	}
	if k > n {
		k = n
	}
	if mb.BatchSize > n {
		mb.BatchSize = n
	}
	if reg := opts.Metrics; reg != nil {
		reg.Counter("minibatch_runs_total").Inc()
	}
	centroids := initialCentroids(s, k, seeds, opts.Rand)

	// Sampled update rounds. The nearest-centroid scan reuses the
	// exhaustive machinery over just the batch: per round the centroids
	// are indexed once (when the space supports it) and each sampled
	// point scores all k — the batch is small by construction, so bound
	// maintenance would not amortize.
	counts := make([]float64, k)
	batch := make([]int, mb.BatchSize)
	members := make([][]int, k)
	b := newAssignerBase(s, k, opts, 1)
	for round := 0; round < mb.Rounds; round++ {
		for i := range batch {
			batch[i] = opts.Rand.Intn(n)
		}
		idx := b.index(centroids)
		for c := range members {
			members[c] = members[c][:0]
		}
		for _, p := range batch {
			best, _, _ := b.scanPoint(p, centroids, idx, 0)
			b.dist[0] += int64(k)
			members[best] = append(members[best], p)
		}
		for c := 0; c < k; c++ {
			if len(members[c]) == 0 {
				continue
			}
			counts[c] += float64(len(members[c]))
			eta := float64(len(members[c])) / counts[c]
			centroids[c] = bl.Blend(centroids[c], s.Centroid(members[c]), eta)
		}
	}

	// Final full assignment through the configured exact kernel, one
	// round over frozen centroids.
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	movedBy := make([]int, maxShards(n, opts.Workers))
	asg := newAssigner(s, k, opts, len(movedBy))
	asg.assign(centroids, assign, movedBy)

	// Repair empty clusters once, exactly like KMeans: reseed each from
	// the point farthest from its assigned centroid, then re-assign.
	// Mini-batch can leave a centroid unsampled (or sampled away), and
	// an epoch with silently-empty clusters would break the directory's
	// k-page contract.
	sizes := Sizes(assign, k)
	var taken map[int]bool
	var repairSims []float64
	repaired := false
	for c := 0; c < k; c++ {
		if sizes[c] != 0 {
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
		repaired = true
	}
	if repaired {
		asg.assign(centroids, assign, movedBy)
	}
	if reg := opts.Metrics; reg != nil {
		reg.Counter("distance_computations_total").Add(b.distTotal() + asg.distTotal())
		reg.Counter("kmeans_pruned_total").Add(asg.prunedTotal())
	}
	return Result{Assign: assign, K: k, Iterations: mb.Rounds, Centroids: centroids}
}
