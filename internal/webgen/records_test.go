package webgen

import (
	"math/rand"
	"strings"
	"testing"
)

func TestRecordsGeneratedForEveryFormPage(t *testing.T) {
	c := Generate(Config{Seed: 1, FormPages: 64})
	for _, u := range c.FormPages {
		recs := c.Records[u]
		if len(recs) != recordCount {
			t.Fatalf("%s: %d records", u, len(recs))
		}
		for _, r := range recs {
			if strings.TrimSpace(r) == "" {
				t.Fatalf("%s: empty record", u)
			}
		}
	}
}

func TestRecordsDeterministicAndHTMLIndependent(t *testing.T) {
	a := Generate(Config{Seed: 5, FormPages: 32})
	b := Generate(Config{Seed: 5, FormPages: 32})
	for _, u := range a.FormPages {
		ra, rb := a.Records[u], b.Records[u]
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("records differ for %s", u)
			}
		}
	}
}

func TestRecordsCarryDomainVocabulary(t *testing.T) {
	c := Generate(Config{Seed: 2, FormPages: 64})
	markers := map[Domain]string{
		Airfare:   "Flight from",
		Book:      "published by",
		Hotel:     "per night",
		CarRental: "per day",
		Movie:     "directed by",
		Job:       "position in",
	}
	for _, u := range c.FormPages {
		marker, ok := markers[c.Labels[u]]
		if !ok {
			continue
		}
		hit := false
		for _, r := range c.Records[u] {
			if strings.Contains(r, marker) {
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("%s (%s): no record contains %q", u, c.Labels[u], marker)
		}
	}
}

func TestSearchRecords(t *testing.T) {
	recs := []string{
		"Flight from Boston to Denver departing June",
		"Flight from Miami to Seattle departing March",
	}
	if got := SearchRecords(recs, "boston"); len(got) != 1 {
		t.Errorf("boston -> %v", got)
	}
	if got := SearchRecords(recs, "flight"); len(got) != 2 {
		t.Errorf("flight -> %d", len(got))
	}
	if got := SearchRecords(recs, "zebra"); len(got) != 0 {
		t.Errorf("zebra -> %v", got)
	}
	if got := SearchRecords(recs, ""); got != nil {
		t.Errorf("empty query -> %v", got)
	}
	if got := SearchRecords(recs, "BOSTON miami"); len(got) != 2 {
		t.Errorf("multi-term OR -> %d", len(got))
	}
}

func TestRandomRecords(t *testing.T) {
	recs := []string{"a", "b", "c", "d", "e"}
	rng := rand.New(rand.NewSource(1))
	got := RandomRecords(recs, 3, rng)
	if len(got) != 3 {
		t.Fatalf("got %d", len(got))
	}
	seen := map[string]bool{}
	for _, r := range got {
		if seen[r] {
			t.Fatal("duplicate sample")
		}
		seen[r] = true
	}
	if all := RandomRecords(recs, 10, rng); len(all) != 5 {
		t.Errorf("oversample -> %d", len(all))
	}
}
