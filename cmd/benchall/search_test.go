package main

import (
	"reflect"
	"testing"
)

// TestFixtureQueriesSeeded: the fixture's query pool is non-empty,
// deterministic per seed, and distinct across seeds.
func TestFixtureQueriesSeeded(t *testing.T) {
	a, b := newFixture(5, 32), newFixture(5, 32)
	if len(a.queries) == 0 {
		t.Fatal("fixture generated no queries")
	}
	if !reflect.DeepEqual(a.queries, b.queries) {
		t.Fatal("fixture queries not deterministic at fixed seed")
	}
	c := newFixture(6, 32)
	if reflect.DeepEqual(a.queries, c.queries) {
		t.Fatal("fixture queries identical across different seeds")
	}
}

// TestNearestRank pins the quantile definition the search report uses.
func TestNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0.50, 6}, {0.95, 10}, {0.99, 10}, {0, 1}, {1, 10},
	}
	for _, c := range cases {
		if got := nearestRank(s, c.q); got != c.want {
			t.Errorf("nearestRank(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("empty nearestRank = %v", got)
	}
}
