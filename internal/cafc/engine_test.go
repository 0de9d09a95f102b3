package cafc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cafc/internal/cluster"
	"cafc/internal/form"
	"cafc/internal/vector"
)

// mapSpace is the map-vector oracle for the packed engine: Equation 3
// over vector.Cosine on each page's PC/FC TF-IDF maps (vector.TFIDF of
// the form page's occurrences), with centroids from vector.Centroid —
// the similarity the reproduction started with. It implements only
// cluster.Space, so the kernels score it through plain Sim calls.
type mapSpace struct {
	m      *Model
	pc, fc []vector.Vector
}

// newMapSpace embeds fps, the pages m was built from, as TF-IDF maps
// under m's DF tables.
func newMapSpace(m *Model, fps []*form.FormPage) mapSpace {
	s := mapSpace{m: m, pc: make([]vector.Vector, len(fps)), fc: make([]vector.Vector, len(fps))}
	for i, fp := range fps {
		s.pc[i], s.fc[i] = tfidfMaps(m, fp)
	}
	return s
}

type mapPoint struct {
	pc, fc vector.Vector
}

func (s mapSpace) Len() int { return s.m.Len() }

func (s mapSpace) Point(i int) cluster.Point {
	return mapPoint{pc: s.pc[i], fc: s.fc[i]}
}

func (s mapSpace) Centroid(members []int) cluster.Point {
	pcs := make([]vector.Vector, len(members))
	fcs := make([]vector.Vector, len(members))
	for i, mem := range members {
		pcs[i] = s.pc[mem]
		fcs[i] = s.fc[mem]
	}
	return mapPoint{pc: vector.Centroid(pcs), fc: vector.Centroid(fcs)}
}

func (s mapSpace) Sim(a, b cluster.Point) float64 {
	pa, pb := a.(mapPoint), b.(mapPoint)
	switch s.m.Features {
	case FCOnly:
		return vector.Cosine(pa.fc, pb.fc)
	case PCOnly:
		return vector.Cosine(pa.pc, pb.pc)
	default:
		c1, c2 := s.m.C1, s.m.C2
		return (c1*vector.Cosine(pa.pc, pb.pc) + c2*vector.Cosine(pa.fc, pb.fc)) / (c1 + c2)
	}
}

// TestEnginesAgree holds the compiled two-space engine to the map
// oracle: pairwise Equation 3 similarities agree within 1e-12 under
// every feature configuration, and identically-seeded CAFC-C, CAFC-CH
// (hub-seeded) and HAC runs produce identical assignments.
func TestEnginesAgree(t *testing.T) {
	p := buildPipeline(t, 5, 120)
	compiled := p.model
	oracle := newMapSpace(compiled, p.fps)
	for _, f := range []Features{FCPC, FCOnly, PCOnly} {
		mc, mo := compiled.WithFeatures(f), oracle
		mo.m = mc
		for i := 0; i < 40; i++ {
			for j := i; j < 40; j++ {
				got, want := mc.PairSim(i, j), mo.Sim(mo.Point(i), mo.Point(j))
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("%v: sim(%d,%d) compiled %g vs map %g", f, i, j, got, want)
				}
			}
		}
	}
	a := CAFCC(compiled, p.k, rand.New(rand.NewSource(3)))
	b := cluster.KMeans(oracle, p.k, nil, cluster.Options{Rand: rand.New(rand.NewSource(3))})
	if !reflect.DeepEqual(a.Assign, b.Assign) {
		t.Error("compiled engine changed CAFC-C assignments")
	}
	seeds := SelectHubClusters(compiled, p.clusters, p.k, 2)
	if len(seeds) == 0 {
		t.Fatal("no hub seeds selected")
	}
	ca := CAFCCSeeded(compiled, p.k, seeds, rand.New(rand.NewSource(1)))
	cb := cluster.KMeans(oracle, p.k, seeds, cluster.Options{Rand: rand.New(rand.NewSource(1))})
	if !reflect.DeepEqual(ca.Assign, cb.Assign) {
		t.Error("compiled engine changed hub-seeded CAFC-CH assignments")
	}
	ha := HACResult(compiled, p.k, cluster.AverageLinkage)
	hb := cluster.HACCut(oracle, p.k, cluster.AverageLinkage)
	if !reflect.DeepEqual(ha.Assign, hb.Assign) {
		t.Error("compiled engine changed HAC assignments")
	}
}

// TestEngineParallelDeterminism runs the full CAFC-CH pipeline on the
// packed model with 1 and 8 workers and demands identical output —
// the determinism guarantee at the paper-algorithm level.
func TestEngineParallelDeterminism(t *testing.T) {
	p := buildPipeline(t, 6, 120)
	seeds := SelectHubClusters(p.model, p.clusters, p.k, 2)
	serial := cluster.KMeans(p.model, p.k, seeds, cluster.Options{Rand: rand.New(rand.NewSource(1)), Workers: 1})
	parallel := cluster.KMeans(p.model, p.k, seeds, cluster.Options{Rand: rand.New(rand.NewSource(1)), Workers: 8})
	if !reflect.DeepEqual(serial.Assign, parallel.Assign) {
		t.Error("parallel CAFC-CH differs from serial")
	}
	ss := cluster.SilhouetteWorkers(p.model, serial.Assign, serial.K, 1)
	sp := cluster.SilhouetteWorkers(p.model, serial.Assign, serial.K, 8)
	if ss != sp {
		t.Errorf("silhouette over the model: parallel %v != serial %v", sp, ss)
	}
}

// TestMixedPointSim covers the packed/map mixed path: a page embedded
// outside the model (map point) compared against compiled centroids.
func TestMixedPointSim(t *testing.T) {
	p := buildPipeline(t, 7, 80)
	m := p.model
	res := CAFCC(m, p.k, rand.New(rand.NewSource(2)))
	members := cluster.Members(res.Assign, res.K)
	cent := m.Centroid(members[0]) // cpoint
	pc, fc := tfidfMaps(m, p.fps[3])
	ext := point{pc: pc, fc: fc} // map point
	got := m.Sim(ext, cent)
	// Reference: the same comparison entirely on the map oracle.
	oracle := newMapSpace(m, p.fps)
	want := oracle.Sim(oracle.Point(3), oracle.Centroid(members[0]))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("mixed Sim %g != map reference %g", got, want)
	}
	// And CompileVectors must be equivalent, not just compatible: it is
	// the page's own packed point.
	packed := m.CompileVectors(pc, fc)
	if math.Abs(m.Sim(packed, cent)-got) > 1e-12 {
		t.Error("CompileVectors changed the similarity")
	}
	if !reflect.DeepEqual(packed, m.Point(3)) {
		t.Error("CompileVectors of the page's TF-IDF maps differs from its packed point")
	}
}
