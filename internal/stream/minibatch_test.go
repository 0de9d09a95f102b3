package stream

import "testing"

// liveEpoch drives two synchronous batches so the second epoch is a
// mini-batch extension over a real incremental model.
func liveEpoch(t testing.TB, seed int64, n int) (*Live, *Epoch) {
	t.Helper()
	docs := genDocs(t, seed, n)
	l := syncLive(Config{K: 4, Seed: 2, DriftThreshold: 2})
	l.apply(Record{Docs: docs[:n*3/4]}, false)
	l.apply(Record{Docs: docs[n*3/4:]}, false)
	e := l.cur.Load()
	if e == nil || e.Rebuilt {
		t.Fatal("second epoch should be a mini-batch extension")
	}
	return l, e
}

// TestNearestFnIndexedMatchesSimLoop pins the mini-batch scoring
// rewrite: the indexed closure must assign every corpus point to the
// same centroid as the plain per-centroid Sim loop it replaced.
func TestNearestFnIndexedMatchesSimLoop(t *testing.T) {
	l, e := liveEpoch(t, 13, 36)
	m, cents := e.Model, e.Result.Centroids
	if m.NewCentroidIndex(cents) == nil {
		t.Fatal("centroid index inactive on the live model")
	}
	nearest := l.nearestFn(m, cents)
	for i := 0; i < m.Len(); i++ {
		best, bestSim := 0, -1.0
		p := m.Point(i)
		for c := range cents {
			if sim := m.Sim(p, cents[c]); sim > bestSim {
				best, bestSim = c, sim
			}
		}
		if got := nearest(i); got != best {
			t.Errorf("point %d: indexed nearest = %d, Sim loop = %d", i, got, best)
		}
	}
}

// TestNearestFnZeroAlloc pins the steady-state mini-batch scoring loop
// at zero allocations per scored point.
func TestNearestFnZeroAlloc(t *testing.T) {
	l, e := liveEpoch(t, 12, 40)
	nearest := l.nearestFn(e.Model, e.Result.Centroids)
	nearest(0) // warm
	last := e.Model.Len() - 1
	allocs := testing.AllocsPerRun(100, func() {
		nearest(0)
		nearest(last)
	})
	if allocs != 0 {
		t.Errorf("indexed scoring allocates %v per point pair, want 0", allocs)
	}
}
