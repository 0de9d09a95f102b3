package vector

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomCorpus builds n random sparse vectors over a vocabulary of v
// terms, with up to nnz non-zero terms each. Weights are uniform in
// (0, 10); a few vectors are left empty to cover the zero-norm path.
func randomCorpus(rng *rand.Rand, n, v, nnz int) []Vector {
	out := make([]Vector, n)
	for i := range out {
		vec := New()
		if i%17 != 3 { // every 17th vector stays empty
			for t := 0; t < 1+rng.Intn(nnz); t++ {
				vec[fmt.Sprintf("t%d", rng.Intn(v))] = rng.Float64() * 10
			}
		}
		out[i] = vec
	}
	return out
}

func TestDictInternLookup(t *testing.T) {
	d := NewDict()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatal("distinct terms shared an ID")
	}
	if got := d.Intern("alpha"); got != a {
		t.Errorf("re-intern changed ID: %d != %d", got, a)
	}
	if id, ok := d.ID("beta"); !ok || id != b {
		t.Errorf("ID(beta) = %d, %v", id, ok)
	}
	if _, ok := d.ID("gamma"); ok {
		t.Error("unknown term reported as interned")
	}
	if d.Term(a) != "alpha" || d.Term(b) != "beta" {
		t.Error("Term does not invert Intern")
	}
	if d.Term(99) != "" {
		t.Error("out-of-range Term should be empty")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
}

// TestCompiledAgreesWithMaps is the property test the packed engine is
// held to: over seeded random corpora, Dot, Cosine, norms and centroids
// computed on packed vectors agree with the map implementations within
// 1e-12.
func TestCompiledAgreesWithMaps(t *testing.T) {
	const tol = 1e-12
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vecs := randomCorpus(rng, 40, 200, 30)
		d := NewDict()
		packed := make([]Compiled, len(vecs))
		for i, v := range vecs {
			packed[i] = Compile(v, d)
		}
		for i := range vecs {
			if got, want := packed[i].Norm, vecs[i].Norm(); math.Abs(got-want) > tol {
				t.Fatalf("seed %d: norm[%d] = %g, map %g", seed, i, got, want)
			}
			for j := i; j < len(vecs); j++ {
				if got, want := packed[i].Dot(packed[j]), vecs[i].Dot(vecs[j]); math.Abs(got-want) > tol {
					t.Fatalf("seed %d: dot(%d,%d) = %g, map %g", seed, i, j, got, want)
				}
				if got, want := CosineCompiled(packed[i], packed[j]), Cosine(vecs[i], vecs[j]); math.Abs(got-want) > tol {
					t.Fatalf("seed %d: cosine(%d,%d) = %g, map %g", seed, i, j, got, want)
				}
			}
		}
		// Centroids over random member subsets.
		acc := NewAccumulator(d.Len())
		for trial := 0; trial < 10; trial++ {
			var members []Compiled
			var mapMembers []Vector
			for i := range vecs {
				if rng.Intn(2) == 0 {
					members = append(members, packed[i])
					mapMembers = append(mapMembers, vecs[i])
				}
			}
			got := CentroidCompiled(members, acc).Decompile(d)
			want := Centroid(mapMembers)
			if got.Len() != want.Len() {
				t.Fatalf("seed %d: centroid nnz %d != %d", seed, got.Len(), want.Len())
			}
			for term, w := range want {
				if math.Abs(got[term]-w) > tol {
					t.Fatalf("seed %d: centroid[%s] = %g, map %g", seed, term, got[term], w)
				}
			}
		}
	}
}

func TestCompileDecompileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDict()
	for _, v := range randomCorpus(rng, 20, 100, 20) {
		c := Compile(v, d)
		back := c.Decompile(d)
		if len(back) != len(v) {
			t.Fatalf("round trip changed nnz: %d != %d", len(back), len(v))
		}
		for term, w := range v {
			if back[term] != w {
				t.Fatalf("round trip changed weight of %q: %g != %g", term, back[term], w)
			}
		}
		// IDs must come out sorted.
		for i := 1; i < len(c.IDs); i++ {
			if c.IDs[i-1] >= c.IDs[i] {
				t.Fatal("compiled IDs not strictly sorted")
			}
		}
	}
}

func TestCompileLookupDropsUnknown(t *testing.T) {
	d := NewDict()
	known := Vector{"a": 1, "b": 2}
	Compile(known, d)
	mixed := Vector{"a": 3, "zzz": 5}
	c := CompileLookup(mixed, d)
	if c.Len() != 1 {
		t.Fatalf("nnz = %d, want 1", c.Len())
	}
	if d.Len() != 2 {
		t.Error("CompileLookup mutated the dictionary")
	}
	if c.Norm != 3 {
		t.Errorf("norm = %g, want 3 (unknown term dropped)", c.Norm)
	}
}

func TestCompiledZeroVectors(t *testing.T) {
	d := NewDict()
	empty := Compile(New(), d)
	some := Compile(Vector{"x": 2}, d)
	if empty.Norm != 0 || empty.Len() != 0 {
		t.Fatalf("empty compile: %+v", empty)
	}
	if got := CosineCompiled(empty, some); got != 0 {
		t.Errorf("cosine with zero vector = %g", got)
	}
	if got := CosineCompiled(some, some); got != 1 {
		t.Errorf("self cosine = %g", got)
	}
}

func TestAccumulatorReuseAndGrow(t *testing.T) {
	d := NewDict()
	a := Compile(Vector{"a": 1}, d)
	acc := NewAccumulator(d.Len())
	first := CentroidCompiled([]Compiled{a}, acc)
	if first.Len() != 1 || first.Weights[0] != 1 {
		t.Fatalf("first centroid: %+v", first)
	}
	// New terms extend the dictionary past the accumulator's capacity;
	// it must grow rather than panic, and the prior Compile must have
	// reset state so nothing leaks between uses.
	b := Compile(Vector{"b": 4, "c": 4}, d)
	second := CentroidCompiled([]Compiled{a, b}, acc)
	if second.Len() != 3 {
		t.Fatalf("second centroid nnz = %d", second.Len())
	}
	back := second.Decompile(d)
	for term, want := range map[string]float64{"a": 0.5, "b": 2, "c": 2} {
		if back[term] != want {
			t.Errorf("centroid[%s] = %g, want %g", term, back[term], want)
		}
	}
}

// benchVectors builds two overlapping ~120-term vectors shaped like the
// corpus' page-content vectors.
func benchVectors() (Vector, Vector) {
	rng := rand.New(rand.NewSource(7))
	a, b := New(), New()
	for i := 0; i < 120; i++ {
		a[fmt.Sprintf("t%d", rng.Intn(400))] = rng.Float64() * 5
		b[fmt.Sprintf("t%d", rng.Intn(400))] = rng.Float64() * 5
	}
	return a, b
}

func BenchmarkCosine(b *testing.B) {
	av, bv := benchVectors()
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Cosine(av, bv)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		d := NewDict()
		ac, bc := Compile(av, d), Compile(bv, d)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			CosineCompiled(ac, bc)
		}
	})
}
