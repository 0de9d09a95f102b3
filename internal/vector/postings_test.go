package vector

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// postingsFixture compiles a random corpus and splits it into indexed
// "centroids" (the first k, deliberately dense via high nnz) and sparse
// query vectors.
func postingsFixture(seed int64, k, n int) ([]Compiled, []Compiled) {
	rng := rand.New(rand.NewSource(seed))
	d := NewDict()
	cents := make([]Compiled, k)
	for i := range cents {
		cents[i] = Compile(randomCorpus(rng, 1, 400, 120)[0], d)
	}
	queries := make([]Compiled, n)
	for i := range queries {
		queries[i] = Compile(randomCorpus(rng, 1, 500, 25)[0], d)
	}
	return cents, queries
}

// TestPostingsDotsMatchesMergeJoin is the index contract: for every
// query and every indexed vector, Dots and DotOne must equal the
// per-pair merge join bit for bit — including queries carrying terms no
// centroid has and the occasional all-empty vector.
func TestPostingsDotsMatchesMergeJoin(t *testing.T) {
	cents, queries := postingsFixture(3, 7, 40)
	p := NewPostings(cents)
	if p.K() != 7 {
		t.Fatalf("K() = %d, want 7", p.K())
	}
	dst := make([]float64, p.K())
	for qi, q := range queries {
		p.Dots(q, dst)
		for c, cent := range cents {
			want := q.Dot(cent)
			if dst[c] != want {
				t.Errorf("query %d centroid %d: Dots = %v, merge join = %v", qi, c, dst[c], want)
			}
			if got := p.DotOne(q, c); got != want {
				t.Errorf("query %d centroid %d: DotOne = %v, merge join = %v", qi, c, got, want)
			}
			if p.Norm(c) != cent.Norm {
				t.Errorf("centroid %d: Norm = %v, want %v", c, p.Norm(c), cent.Norm)
			}
		}
	}
}

// TestPostingsEmpty covers the degenerate index shapes: no vectors at
// all, and all-empty vectors.
func TestPostingsEmpty(t *testing.T) {
	p := NewPostings(nil)
	if p.K() != 0 {
		t.Fatalf("empty index K() = %d", p.K())
	}
	p = NewPostings(make([]Compiled, 3))
	q := Compiled{IDs: []uint32{2, 9}, Weights: []float64{1, 2}, Norm: 1}
	dst := []float64{7, 7, 7}
	p.Dots(q, dst)
	for c, v := range dst {
		if v != 0 {
			t.Errorf("empty centroid %d scored %v", c, v)
		}
		if got := p.DotOne(q, c); got != 0 {
			t.Errorf("empty centroid %d DotOne = %v", c, got)
		}
	}
}

// TestPostingsDotsAllocatesNoDenseRows: an index scored only through
// Dots allocates its CSR arrays and nothing vocabulary × K sized. At
// 256 vectors over a 50k-term vocabulary the dense rows would be
// 100 MB; the CSR arrays here are under 1 MB.
func TestPostingsDotsAllocatesNoDenseRows(t *testing.T) {
	const k, vocab, nnz = 256, 50000, 64
	rng := rand.New(rand.NewSource(5))
	vs := make([]Compiled, k)
	for i := range vs {
		var p Packer
		seen := make(map[int]bool, nnz)
		for len(seen) < nnz {
			if id := rng.Intn(vocab); !seen[id] {
				seen[id] = true
				p.Add(uint32(id), rng.Float64())
			}
		}
		vs[i] = p.Pack()
	}
	maxID := 0
	for _, v := range vs {
		maxID = max(maxID, int(v.IDs[len(v.IDs)-1]))
	}
	// starts and the build's cursor copy, cent and weight, norms.
	csr := uint64(4*(maxID+2) + 4*(maxID+1) + 12*k*nnz + 8*k)
	dst := make([]float64, k)
	used := uint64(math.MaxUint64)
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := NewPostings(vs)
		for _, q := range vs {
			p.Dots(q, dst)
		}
		runtime.ReadMemStats(&after)
		used = min(used, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := csr + csr/8 + 4096; used > limit {
		t.Fatalf("NewPostings + %d Dots allocated %d bytes, want at most %d (CSR arrays %d)", k, used, limit, csr)
	}
}

// TestPostingsDotOneConcurrentFirstUse: DotOne called from several
// goroutines on a fresh index, so the first calls race to build the
// dense rows, equals the merge join bit for bit.
func TestPostingsDotOneConcurrentFirstUse(t *testing.T) {
	cents, queries := postingsFixture(11, 9, 30)
	for round := 0; round < 5; round++ {
		p := NewPostings(cents)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for qi, q := range queries {
					for c, cent := range cents {
						if got, want := p.DotOne(q, c), q.Dot(cent); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("query %d centroid %d: DotOne = %v, merge join = %v", qi, c, got, want)
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
