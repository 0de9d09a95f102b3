package main

import (
	"math/rand"

	"cafc"
	"cafc/internal/htmlx"
	"cafc/internal/text"
	"cafc/internal/webgen"
)

// fixture is the search benchmark's seeded corpus: docs are the
// generated form pages in generator order, labels their gold domains
// (for facet purity), and queries a seeded search-query pool drawn from
// the corpus's own page titles — realistic, always-matching queries.
type fixture struct {
	docs    []cafc.Document
	labels  map[string]string
	queries []string
}

// fixtureQueries caps the generated query pool.
const fixtureQueries = 128

// newFixture generates n form pages at seed.
func newFixture(seed int64, n int) fixture {
	c := webgen.Generate(webgen.Config{Seed: seed, FormPages: n})
	docs := make([]cafc.Document, 0, len(c.FormPages))
	labels := make(map[string]string, len(c.FormPages))
	for _, u := range c.FormPages {
		docs = append(docs, cafc.Document{URL: u, HTML: c.ByURL[u].HTML})
		labels[u] = string(c.Labels[u])
	}
	return fixture{docs: docs, labels: labels, queries: genQueries(c, seed)}
}

// genQueries samples 1-2 word queries from page titles. Tokens are used
// raw (lower-cased, stop words removed, NOT stemmed) — queries go
// through the searcher's own term pipeline like a user's would, so
// pre-stemming here would stem twice and miss.
func genQueries(c *webgen.Corpus, seed int64) []string {
	rng := rand.New(rand.NewSource(seed + 3))
	seen := make(map[string]bool)
	var out []string
	for tries := 0; len(out) < fixtureQueries && tries < 8*fixtureQueries; tries++ {
		u := c.FormPages[rng.Intn(len(c.FormPages))]
		title := htmlx.Title(htmlx.Parse(c.ByURL[u].HTML))
		var toks []string
		for _, tok := range text.Tokenize(title) {
			if !text.IsStopWord(tok) {
				toks = append(toks, tok)
			}
		}
		if len(toks) == 0 {
			continue
		}
		i := rng.Intn(len(toks))
		q := toks[i]
		if i+1 < len(toks) && rng.Float64() < 0.5 {
			q += " " + toks[i+1]
		}
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}
