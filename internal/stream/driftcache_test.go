package stream

import (
	"math"
	"reflect"
	"testing"

	icafc "cafc/internal/cafc"
	"cafc/internal/cluster"
	"cafc/internal/form"
	"cafc/internal/obs"
	"cafc/internal/vector"
)

// oracleMiniBatch is the mini-batch pass with the drift rescan done in
// full: assign each new page to its nearest centroid, refresh the
// receiving centroids, then re-score every page against every
// centroid. The pipeline's cached rescan must reproduce it bit for bit.
func oracleMiniBatch(m *icafc.Model, cur *Epoch) (cluster.Result, float64) {
	o := syncLive(Config{})
	k := cur.Result.K
	centroids := append([]cluster.Point(nil), cur.Result.Centroids...)
	assign := make([]int, m.Len())
	copy(assign, cur.Result.Assign)

	nearest := o.nearestFn(m, centroids)
	touched := make(map[int]bool)
	for i := len(cur.Result.Assign); i < m.Len(); i++ {
		best := nearest(i)
		assign[i] = best
		touched[best] = true
	}
	pacc, facc := vector.NewAccumulator(0), vector.NewAccumulator(0)
	members := cluster.Members(assign, k)
	for c := range touched {
		if len(members[c]) > 0 {
			centroids[c] = m.CentroidWith(members[c], pacc, facc)
		}
	}

	nearest = o.nearestFn(m, centroids)
	moved := 0
	for i := 0; i < m.Len(); i++ {
		if nearest(i) != assign[i] {
			moved++
		}
	}
	drift := 0.0
	if m.Len() > 0 {
		drift = float64(moved) / float64(m.Len())
	}
	return cluster.Result{Assign: assign, K: k, Centroids: centroids}, drift
}

// fullRescan scores every page of e against every centroid of e,
// row-major — what the pipeline's rescan cache must hold for e.
func fullRescan(e *Epoch) []float64 {
	k := e.Result.K
	ix := e.Model.NewCentroidIndex(e.Result.Centroids)
	scratch := make([]float64, ix.ScratchLen())
	out := make([]float64, e.Model.Len()*k)
	for i := 0; i < e.Model.Len(); i++ {
		ix.Sims(out[i*k:(i+1)*k], scratch, i)
	}
	return out
}

// driftStep is one record of the drift-cache scenario.
type driftStep struct {
	name string
	rec  Record
	// drift overrides the pipeline's DriftThreshold for this record
	// (0 keeps it); -1 makes the mini-batch's drift check discard it.
	drift float64
	// recover replaces the pipeline, before this record, by one that
	// replays every earlier record at construction.
	recover bool
	// warm says the mini-batch should reuse the last rescan; cold ones
	// re-score everything, and records that run no mini-batch score
	// nothing.
	warm bool
}

// driftSteps walks the rescan cache through every way an epoch can
// leave it valid or not. The founding batch has fewer pages than K, so
// the clustering's K grows at the first rebuild.
func driftSteps(docs []Doc) []driftStep {
	one := func(i int) Record { return Record{Docs: []Doc{docs[i]}} }
	return []driftStep{
		{name: "founding batch", rec: Record{Docs: docs[:3]}},
		{name: "first mini-batch", rec: one(3)},
		{name: "one page", rec: one(4), warm: true},
		{name: "several pages", rec: Record{Docs: docs[5:10]}, warm: true},
		{name: "one page after several", rec: one(10), warm: true},
		{name: "forced rebuild", rec: Record{}},
		{name: "after the rebuild", rec: one(11)},
		{name: "one page", rec: one(12), warm: true},
		{name: "skipped pages only", rec: Record{Docs: formlessDocs(2)}},
		{name: "after the skipped record", rec: one(13)},
		{name: "one page", rec: one(14), warm: true},
		{name: "after recovery", rec: one(15), recover: true, warm: true},
		{name: "drift discards the mini-batch", rec: one(16), drift: -1, warm: true},
		{name: "after the drift rebuild", rec: one(17)},
		{name: "one page", rec: one(18), warm: true},
		{name: "several pages", rec: Record{Docs: docs[19:23]}, warm: true},
		{name: "one page", rec: one(23), warm: true},
	}
}

// parsedPages is the pages of rec the pipeline admits, in order.
func parsedPages(rec Record) []*form.FormPage {
	var fps []*form.FormPage
	for _, fp := range ParseDocs(rec.Docs, form.DefaultWeights, 1) {
		if fp != nil {
			fps = append(fps, fp)
		}
	}
	return fps
}

// runDriftSteps drives a manual pipeline through driftSteps and calls
// check after each record with the epochs before and after it and the
// page × centroid similarities the record's mini-batch scored.
func runDriftSteps(t *testing.T, check func(st driftStep, l *Live, prev, next *Epoch, scored int64)) {
	t.Helper()
	docs := genDocs(t, 19, 24)
	cfg := Config{K: 4, Seed: 6, DriftThreshold: 2, IngestWorkers: 1}
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	l := NewManual(cfg, nil, nil)
	var applied []Record
	for _, st := range driftSteps(docs) {
		if st.recover {
			r := NewManual(cfg, nil, applied)
			assertSamePipeline(t, "recovered", r, l)
			l = r
		}
		l.cfg.DriftThreshold = cfg.DriftThreshold
		if st.drift != 0 {
			l.cfg.DriftThreshold = st.drift
		}
		prev := l.Current()
		before := reg.Counter("stream_assign_sims_total").Value()
		if err := l.ApplyReplicated(st.rec); err != nil {
			t.Fatal(err)
		}
		check(st, l, prev, l.Current(), reg.Counter("stream_assign_sims_total").Value()-before)
		applied = append(applied, st.rec)
	}
}

// TestDriftRescanMatchesFullRescan holds the cached drift rescan to the
// full rescan it replaces: at every mini-batch epoch the drift fraction
// bits, the assignment and the centroid bits equal the oracle's, and
// the cache holds exactly a full rescan of the published epoch.
func TestDriftRescanMatchesFullRescan(t *testing.T) {
	founding, rebuilt := 0, 0
	runDriftSteps(t, func(st driftStep, l *Live, prev, next *Epoch, _ int64) {
		switch {
		case prev == nil:
			founding = next.Result.K
			return
		case st.rec.IsRebuild():
			rebuilt = next.Result.K
			return
		case next.Model.Len() == prev.Model.Len():
			if next.Seq != prev.Seq+1 || !reflect.DeepEqual(next.Result, prev.Result) {
				t.Fatalf("%s: a skipped-pages record must keep the clustering", st.name)
			}
			return
		}
		m := prev.Model.Clone()
		m.AppendPages(parsedPages(st.rec))
		want, drift := oracleMiniBatch(m, prev)
		if got := l.driftBits.Load(); got != math.Float64bits(drift) {
			t.Fatalf("%s: drift %v, the full rescan's %v", st.name, math.Float64frombits(got), drift)
		}
		if next.Rebuilt {
			if drift <= l.cfg.DriftThreshold {
				t.Fatalf("%s: rebuilt at drift %v under threshold %v", st.name, drift, l.cfg.DriftThreshold)
			}
			return
		}
		if !reflect.DeepEqual(next.Result.Assign, want.Assign) {
			t.Fatalf("%s: assignment differs from the full rescan's", st.name)
		}
		if !reflect.DeepEqual(next.Result.Centroids, want.Centroids) {
			t.Fatalf("%s: centroid bits differ from the full rescan's", st.name)
		}
		if l.rescanSeq != next.Seq {
			t.Fatalf("%s: rescan cache marked for epoch %d, published %d", st.name, l.rescanSeq, next.Seq)
		}
		full := fullRescan(next)
		if len(l.rescan) != len(full) {
			t.Fatalf("%s: rescan cache holds %d scores, want %d", st.name, len(l.rescan), len(full))
		}
		for i := range full {
			if math.Float64bits(l.rescan[i]) != math.Float64bits(full[i]) {
				k := next.Result.K
				t.Fatalf("%s: cached score of page %d, centroid %d is %v, a full rescan gives %v",
					st.name, i/k, i%k, l.rescan[i], full[i])
			}
		}
	})
	if founding >= 4 || rebuilt != 4 {
		t.Fatalf("K went %d → %d at the forced rebuild; the scenario must change K", founding, rebuilt)
	}
}

// TestDriftRescanWorkScalesWithMovedCentroids pins the rescan's cost,
// not only its value: a mini-batch of `add` new pages over N pages and
// k centroids scores add·k similarities to assign them, then N·k for a
// full rescan, or N·|touched| when the last rescan scored the current
// centroids. Records that run no mini-batch score nothing.
func TestDriftRescanWorkScalesWithMovedCentroids(t *testing.T) {
	warm := 0
	runDriftSteps(t, func(st driftStep, l *Live, prev, next *Epoch, scored int64) {
		want := 0
		if prev != nil && !st.rec.IsRebuild() && next.Model.Len() > prev.Model.Len() {
			k, n, add := prev.Result.K, next.Model.Len(), next.Model.Len()-prev.Model.Len()
			m := prev.Model.Clone()
			m.AppendPages(parsedPages(st.rec))
			res, _ := oracleMiniBatch(m, prev)
			touched := make(map[int]bool)
			for _, c := range res.Assign[prev.Model.Len():] {
				touched[c] = true
			}
			want = add*k + n*k
			if st.warm {
				want = add*k + n*len(touched)
				if len(touched) < k {
					warm++
				}
			}
		}
		if scored != int64(want) {
			t.Errorf("%s (epoch %d): scored %d similarities, want %d (warm %v)", st.name, next.Seq, scored, want, st.warm)
		}
	})
	if warm == 0 {
		t.Fatal("no warm epoch left a centroid unmoved: the scenario does not exercise the cache")
	}
}
