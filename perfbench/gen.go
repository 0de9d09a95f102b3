package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"cafc/internal/dataset"
	"cafc/internal/form"
	"cafc/internal/search"
	"cafc/internal/webgen"
)

// Op kinds of the read mix.
const (
	opClassify = iota
	opSearch
	opBrowse
	numOpKinds
)

var opNames = [numOpKinds]string{"classify", "search", "browse"}

// mixBlock is the read mix as an exact block: every 20 consecutive ops
// hold 11 classifies, 6 searches and 3 browses (55/30/15%) in a seeded
// order, so a run's per-kind sample counts are fixed by its op count.
var mixBlock = [numOpKinds]int{11, 6, 3}

const mixBlockLen = 20

// op is one pre-encoded read: its kind and the index of its request in
// the inputs (classify body, search URL or browse path).
type op struct {
	kind int
	arg  int
}

// inputs is everything a run sends, generated from the seed before any
// timing starts. The same seed and size give byte-identical inputs.
type inputs struct {
	// genesis is the gzipped-JSON dataset handed to directoryd -in.
	genesis *dataset.Dataset
	// genesisURLs are the genesis form pages, all of which parse.
	genesisURLs []string
	// labels maps every generated form page to its gold domain.
	labels map[string]string
	// htmlBytes is the HTML size of every generated form page.
	htmlBytes map[string]int

	classifyBodies [][]byte
	classifyDocs   []doc
	queries        []string
	searchPaths    []string
	browsePaths    []string
	ingestBodies   [][]byte
	ingestURLs     []string

	reads []op
}

// doc is one generated form page.
type doc struct {
	URL, HTML string
}

// genConfig sizes one workload's inputs.
type genConfig struct {
	seed     int64
	genesis  int // form pages in the genesis dataset
	classify int // held-out pages for classify
	ingest   int // pages POSTed to /ingest
	queries  int // distinct title-derived queries
	reads    int // read ops, a multiple of mixBlockLen
	k        int
}

// generate builds one web with webgen (hubs and site roots kept, so
// CAFC-CH has backlinks) and splits its form pages into disjoint
// genesis, classify and ingest sets. Only pages that parse to a
// searchable form are used, so every page sent is admitted and the
// final front-page count is exact.
func generate(cfg genConfig) (*inputs, error) {
	need := cfg.genesis + cfg.classify + cfg.ingest
	corpus := webgen.Generate(webgen.Config{Seed: cfg.seed, FormPages: need + need/20 + 16})
	rng := rand.New(rand.NewSource(cfg.seed))

	in := &inputs{labels: map[string]string{}, htmlBytes: map[string]int{}}
	urls := append([]string(nil), corpus.FormPages...)
	rng.Shuffle(len(urls), func(i, j int) { urls[i], urls[j] = urls[j], urls[i] })
	var usable []string
	for _, u := range urls {
		p := corpus.ByURL[u]
		if _, err := form.Parse(u, p.HTML, form.DefaultWeights); err != nil {
			continue
		}
		usable = append(usable, u)
		in.labels[u] = string(corpus.Labels[u])
		in.htmlBytes[u] = len(p.HTML)
	}
	if len(usable) < need {
		return nil, fmt.Errorf("generator: %d usable form pages, need %d", len(usable), need)
	}
	inGenesis := make(map[string]bool, cfg.genesis)
	for _, u := range usable[:cfg.genesis] {
		inGenesis[u] = true
	}
	classify := usable[cfg.genesis : cfg.genesis+cfg.classify]
	ingest := usable[cfg.genesis+cfg.classify : need]

	// The genesis keeps every non-form page (roots, hubs, directories)
	// and the chosen form pages, in generation order.
	in.genesis = &dataset.Dataset{}
	for _, r := range dataset.FromCorpus(corpus).Records {
		if r.Kind == "form" && !inGenesis[r.URL] {
			continue
		}
		in.genesis.Records = append(in.genesis.Records, r)
		if r.Kind == "form" {
			in.genesisURLs = append(in.genesisURLs, r.URL)
		}
	}

	for _, u := range classify {
		d := doc{u, corpus.ByURL[u].HTML}
		in.classifyDocs = append(in.classifyDocs, d)
		in.classifyBodies = append(in.classifyBodies, mustJSON(map[string]string{"url": d.URL, "html": d.HTML}))
	}
	for _, u := range ingest {
		in.ingestURLs = append(in.ingestURLs, u)
		in.ingestBodies = append(in.ingestBodies, mustJSON(map[string]string{"url": u, "html": corpus.ByURL[u].HTML}))
	}

	qs, err := titleQueries(corpus, in.genesisURLs, cfg.queries, rng)
	if err != nil {
		return nil, err
	}
	in.queries = qs
	for _, q := range qs {
		in.searchPaths = append(in.searchPaths, "/search?q="+url.QueryEscape(q))
	}
	// Browse: the front page once in three, a cluster listing otherwise.
	in.browsePaths = []string{"/"}
	for c := 0; c < cfg.k; c++ {
		in.browsePaths = append(in.browsePaths, "/cluster?id="+strconv.Itoa(c))
	}
	in.reads = readMix(cfg.reads, len(in.classifyBodies), len(qs), cfg.k, rng)
	return in, nil
}

// titleQueries derives the search pool from genesis page titles: each
// title word and each run of two or three adjacent words is a
// candidate; candidates are deduplicated, shuffled, and kept only when
// the genesis index returns a hit for them, so every search the run
// sends has an answer.
func titleQueries(corpus *webgen.Corpus, genesis []string, n int, rng *rand.Rand) ([]string, error) {
	b := search.NewBuilder(nil)
	seen := map[string]bool{}
	var cands []string
	add := func(q string) {
		if !seen[q] {
			seen[q] = true
			cands = append(cands, q)
		}
	}
	for _, u := range genesis {
		title, terms := search.PageTerms(u, corpus.ByURL[u].HTML, form.DefaultWeights)
		b.Add(u, title, terms)
		words := strings.FieldsFunc(strings.ToLower(title), func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsDigit(r)
		})
		for i, w := range words {
			if len(w) >= 3 {
				add(w)
			}
			for n := 2; n <= 3 && i+n <= len(words); n++ {
				add(strings.Join(words[i:i+n], " "))
			}
		}
	}
	sort.Strings(cands)
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	snap := b.Freeze(1, make([]int, b.Len()), 1, search.Options{CacheSize: 1})
	var out []string
	for _, q := range cands {
		if len(out) == n {
			break
		}
		if res, _ := snap.Search(q, 1); res.Total > 0 {
			out = append(out, q)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("generator: %d answerable title queries, need %d", len(out), n)
	}
	return out, nil
}

// zipfS skews the query draw: a few queries are hot (cache hits within
// an epoch), and the long tail keeps the pool beyond the 1024-entry
// per-epoch result cache.
const zipfS = 1.1

// readMix lays out n read ops (n a multiple of mixBlockLen) as shuffled
// exact blocks of the 55/30/15 mix. Classify bodies are drawn uniformly,
// searches by a Zipf rank over the query pool, browses pick the front
// page once in three and a uniform cluster otherwise.
func readMix(n, nClassify, nQueries, k int, rng *rand.Rand) []op {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(nQueries-1))
	block := make([]int, 0, mixBlockLen)
	for kind, cnt := range mixBlock {
		for i := 0; i < cnt; i++ {
			block = append(block, kind)
		}
	}
	ops := make([]op, 0, n)
	for len(ops) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			o := op{kind: kind}
			switch kind {
			case opClassify:
				o.arg = rng.Intn(nClassify)
			case opSearch:
				o.arg = int(zipf.Uint64())
			case opBrowse:
				if rng.Intn(3) > 0 {
					o.arg = 1 + rng.Intn(k)
				}
			}
			ops = append(ops, o)
		}
	}
	return ops[:n]
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings always encode
	}
	return b
}
