package vector

import (
	"math"
	"slices"
	"testing"
)

func TestCompileWeightedAggregatesLocTF(t *testing.T) {
	d := NewDict()
	ts := []WeightedTerm{
		{Term: "hotel", Loc: 3},
		{Term: "rate", Loc: 1},
		{Term: "hotel", Loc: 1},
	}
	c := CompileWeighted(ts, d)
	if c.Len() != 2 {
		t.Fatalf("nnz = %d, want 2", c.Len())
	}
	v := c.Decompile(d)
	if v["hotel"] != 4 || v["rate"] != 1 {
		t.Fatalf("weights = %v, want hotel=4 rate=1", v)
	}
	want := math.Sqrt(4*4 + 1*1)
	if c.Norm != want {
		t.Fatalf("norm = %v, want %v", c.Norm, want)
	}
}

func TestCompileWeightedDeterministicIntern(t *testing.T) {
	// Occurrence order must not change ID assignment: new terms intern in
	// lexicographic order, exactly like Compile.
	a := CompileWeighted([]WeightedTerm{{Term: "zebra", Loc: 1}, {Term: "apple", Loc: 1}}, NewDict())
	b := CompileWeighted([]WeightedTerm{{Term: "apple", Loc: 1}, {Term: "zebra", Loc: 1}}, NewDict())
	if len(a.IDs) != len(b.IDs) {
		t.Fatal("nnz mismatch")
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] || a.Weights[i] != b.Weights[i] {
			t.Fatalf("compiled form depends on occurrence order: %+v vs %+v", a, b)
		}
	}
	if math.Float64bits(a.Norm) != math.Float64bits(b.Norm) {
		t.Fatal("norm not bit-identical")
	}
}

func TestCompileWeightedSortedIDs(t *testing.T) {
	d := NewDict()
	d.Intern("zebra") // pre-interned low ID for a lexicographically late term
	c := CompileWeighted([]WeightedTerm{{Term: "apple", Loc: 2}, {Term: "zebra", Loc: 5}}, d)
	for i := 1; i < len(c.IDs); i++ {
		if c.IDs[i-1] >= c.IDs[i] {
			t.Fatalf("IDs not strictly ascending: %v", c.IDs)
		}
	}
	v := c.Decompile(d)
	if v["zebra"] != 5 || v["apple"] != 2 {
		t.Fatalf("weights misaligned after ID sort: %v", v)
	}
}

// TestCompileWeightedAscendingMatchesOccurrences: input that is one
// entry per term in strictly ascending order (a term record's summed
// form) takes the path without the aggregation map, and must give the
// bits the occurrence path gives for the same sums, interning the same
// new terms at the same IDs, into a dictionary that already holds some
// of them. A -0 sum comes out +0 on both paths (the map path adds it to
// 0), and sorted input that repeats a term must aggregate it.
func TestCompileWeightedAscendingMatchesOccurrences(t *testing.T) {
	negZero := math.Copysign(0, -1)
	summed := []WeightedTerm{
		{Term: "author", Loc: 0.25}, {Term: "book", Loc: 3}, {Term: "isbn", Loc: 1.5},
		{Term: "price", Loc: 0.1 + 0.2}, {Term: "title", Loc: 7}, {Term: "void", Loc: negZero},
	}
	inputs := map[string][]WeightedTerm{
		// The same sums as unsorted occurrences, with one term split in two.
		"unsorted occurrences": {
			{Term: "title", Loc: 7}, {Term: "book", Loc: 1}, {Term: "price", Loc: 0.1 + 0.2},
			{Term: "void", Loc: negZero}, {Term: "author", Loc: 0.25}, {Term: "book", Loc: 2},
			{Term: "isbn", Loc: 1.5},
		},
		// Sorted, but not one entry per term.
		"sorted occurrences": {
			{Term: "author", Loc: 0.25}, {Term: "book", Loc: 1}, {Term: "book", Loc: 2},
			{Term: "isbn", Loc: 1.5}, {Term: "price", Loc: 0.1 + 0.2}, {Term: "title", Loc: 7},
			{Term: "void", Loc: negZero},
		},
	}
	newDict := func() *Dict {
		d := NewDict()
		d.Intern("title")
		d.Intern("zebra")
		d.Intern("book")
		return d
	}
	da := newDict()
	a := CompileWeighted(summed, da)
	for name, occ := range inputs {
		db := newDict()
		b := CompileWeighted(occ, db)
		if !slices.Equal(a.IDs, b.IDs) || len(a.Weights) != len(b.Weights) ||
			math.Float64bits(a.Norm) != math.Float64bits(b.Norm) {
			t.Fatalf("summed input compiles to %+v, %s to %+v", a, name, b)
		}
		for i := range a.Weights {
			if math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
				t.Fatalf("term %q: summed weight %v, %s weight %v (bits differ)",
					da.Term(a.IDs[i]), a.Weights[i], name, b.Weights[i])
			}
		}
		if da.Len() != db.Len() {
			t.Fatalf("dictionaries hold %d and %d terms (%s)", da.Len(), db.Len(), name)
		}
		for id := 0; id < da.Len(); id++ {
			if da.Term(uint32(id)) != db.Term(uint32(id)) {
				t.Fatalf("ID %d interns %q and %q (%s)", id, da.Term(uint32(id)), db.Term(uint32(id)), name)
			}
		}
	}
}
