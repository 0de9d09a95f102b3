package main

// The traced run (-trace 1) gives the per-layer metrics. It is kept
// apart from the timed runs and has two parts.
//
// (a) Counters and profile: the workload runs again against
// directoryd -metrics; /metrics, /status and /debug/pprof/heap?debug=1
// are scraped around the measured phase and a CPU profile of the
// measured phase is saved next to the per-layer results. Its end-to-end
// figures minus those of the plain run of the same seed are the
// instrumentation overhead.
//
// (b) In-process replay with spans: the genesis is rebuilt the way
// directoryd's startLive does, then the run's own WAL tail is replayed
// one record at a time through a follower (cafc.RecoverFollower plus
// synchronous ApplyFrame), so batch boundaries are exactly the
// server's. After each ApplyFrame the benchmark takes the first
// Live.Epoch() (the deferred public-view conversion) and repeats
// directoryd's UI hook; these three make one record's apply span, the
// work directoryd's ingest worker does per epoch. The stages inside it
// are re-run on the same record against a shadow model and timed as
// the apply span's children; the remainder is unattributed, and can
// dip below zero when a re-run stage is slower than it was in place.
// Finally the run's read sequence is replayed against the final epoch.
//
// Three pieces of program wiring are restated here, each marked where
// it is: directoryd's UI hook, the stream's mini-batch assignment and
// drift rescan, and the backlink retry wrapper of Corpus.ClusterCH.
//
// Layer ownership of each per-layer metric, and the end-to-end metric
// it should move (on the other workload the prediction is no change):
//
//	internal/dataset      dataset.load_s                  setup_s (serve)
//	internal/form         form.parse_s                    setup_s (serve)
//	  (+htmlx, text)      form.parse_ms_per_epoch         visible_*, server_cpu_s (mixed)
//	                      form.parse_us_per_classify      classify_p50_ms, read_ops_per_s (serve)
//	internal/cafc         cafc.model_build_s              setup_s (serve)
//	  (+vector)           cafc.clone_ms_per_epoch         visible_*, server_cpu_s, recover_s (mixed)
//	                      cafc.append_ms_per_epoch        visible_*, server_cpu_s, recover_s (mixed)
//	                      cafc.score_us_per_classify      classify_p50_ms (serve)
//	internal/hub          hub.build_s                     setup_s (serve)
//	  (+webgraph)
//	internal/cluster      cluster.genesis_kmeans_s        setup_s (serve)
//	                      cluster.kmeans_iterations       setup_s (serve)
//	                      cluster.assign_ms_per_epoch     visible_*, server_cpu_s (mixed)
//	                      cluster.recluster_s             recover_s (both)
//	internal/stream       stream.epochs                   visible_*, server_cpu_s (mixed)
//	                      stream.docs_per_epoch           visible_*, server_cpu_s (mixed)
//	                      stream.apply_ms_per_epoch       visible_*, recover_s (mixed)
//	                      stream.unattributed_ms_per_epoch visible_*, recover_s (mixed)
//	                      stream.wal_ms_per_epoch         visible_* (mixed)
//	                      stream.fsyncs                   visible_* (mixed)
//	                      stream.visible_p50_ms           lower bound of visible_p50_ms (mixed)
//	                      stream.wal_read_s               recover_s (mixed)
//	                      stream.replay_s                 recover_s (mixed)
//	internal/search       search.index_ms_per_epoch       visible_* (mixed)
//	                      search.miss_us                  search_p99_ms (mixed)
//	                      search.hit_us                   search_p50_ms (serve)
//	                      search.hit_ratio                search_p50_ms (serve)
//	internal/obs/quality  quality.observe_ms_per_epoch    visible_*, server_cpu_s (mixed)
//	internal/directory    directory.build_ms_per_epoch    visible_*, server_cpu_s, recover_s (mixed)
//	                      directory.ui_lag_ms             visible_* (mixed)
//	                      directory.browse_us             browse_* (serve)
//	root cafc             cafc.genesis_publish_s          setup_s (both)
//	                      cafc.convert_ms_per_epoch       visible_* (mixed)
//	                      cafc.snapshot_load_s            recover_s (both)
//	                      cafc.recovered_partition_match  recover_s (both; 0/1, reported, not checked)
//	cmd/directoryd        directoryd.http_us_per_op       read latencies (both)
//	Go runtime            runtime.alloc_mb, runtime.gc_cycles, runtime.gc_pause_ms
//	                                                      *_p99_ms, server_cpu_s, rss_peak_mb (both)
//
// Per-epoch figures are means over the replayed records, so the stage
// self times plus stream.unattributed_ms_per_epoch add up to
// stream.apply_ms_per_epoch exactly. Every replayed record holds one
// page (the ingest lane posts one at a time); on serve they are the
// traced run's 20 probe pages, at 2000 pages.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cafc"
	icafc "cafc/internal/cafc"
	"cafc/internal/cluster"
	"cafc/internal/dataset"
	"cafc/internal/directory"
	"cafc/internal/form"
	"cafc/internal/hub"
	"cafc/internal/obs/quality"
	"cafc/internal/retry"
	"cafc/internal/search"
	"cafc/internal/stream"
	"cafc/internal/vector"
	"cafc/internal/webgraph"
)

// span is one timed call into a layer. Parent links a stage to the
// record's apply span even when the stage re-runs after it, so a
// span's self time is its duration minus its children's durations.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; they are written out at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	s := time.Since(t.t0).Seconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: s, End: s})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	sp := &t.spans[id-1]
	sp.End = time.Since(t.t0).Seconds()
	return sp.End - sp.Start
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, fn func()) float64 {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

// scrape is one reading of directoryd's counters and Go runtime stats.
type scrape struct {
	counters   map[string]float64 // /metrics samples summed per name
	totalAlloc float64
	numGC      int64
	pauseNs    []float64 // the runtime's 256-entry pause ring
}

func scrapeAll(base string) scrape {
	c := &http.Client{Timeout: 30 * time.Second}
	sc := scrape{counters: map[string]float64{}}
	if _, body, err := get(c, base+"/metrics"); err == nil {
		for _, line := range strings.Split(string(body), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			f := strings.Fields(line)
			if len(f) < 2 {
				continue
			}
			name := f[0]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			v, _ := strconv.ParseFloat(f[len(f)-1], 64)
			sc.counters[name] += v
		}
	}
	if _, body, err := get(c, base+"/debug/pprof/heap?debug=1"); err == nil {
		s := bufio.NewScanner(bytes.NewReader(body))
		s.Buffer(make([]byte, 1<<20), 1<<24)
		for s.Scan() {
			line := s.Text()
			switch {
			case strings.HasPrefix(line, "# TotalAlloc = "):
				sc.totalAlloc, _ = strconv.ParseFloat(strings.TrimPrefix(line, "# TotalAlloc = "), 64)
			case strings.HasPrefix(line, "# NumGC = "):
				sc.numGC, _ = strconv.ParseInt(strings.TrimPrefix(line, "# NumGC = "), 10, 64)
			case strings.HasPrefix(line, "# PauseNs = "):
				for _, f := range strings.Fields(strings.Trim(strings.TrimPrefix(line, "# PauseNs = "), "[]")) {
					v, _ := strconv.ParseFloat(f, 64)
					sc.pauseNs = append(sc.pauseNs, v)
				}
			}
		}
	}
	return sc
}

func (a scrape) delta(b scrape, name string) float64 { return b.counters[name] - a.counters[name] }

// gcPauseMs sums the pauses of the collections between a and b (the
// last 256 of them at most — the runtime keeps no more).
func gcPauseMs(a, b scrape) float64 {
	total := 0.0
	for n := b.numGC; n > a.numGC && b.numGC-n < int64(len(b.pauseNs)); n-- {
		total += b.pauseNs[(n-1)%int64(len(b.pauseNs))]
	}
	return total / 1e6
}

// profile saves a CPU profile of the next seconds from directoryd.
func profile(base string, seconds int, path string, done chan<- error) {
	if seconds < 1 {
		seconds = 1
	}
	c := &http.Client{Timeout: time.Duration(seconds+60) * time.Second}
	code, body, err := get(c, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, seconds))
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("profile: HTTP %d", code)
	}
	if err == nil {
		err = os.WriteFile(path, body, 0o644)
	}
	done <- err
}

// runTraced is the -trace 1 run: part (a) against the real server,
// part (b) in process on the run's own WAL.
func runTraced(e *env, in *inputs, genesisPath, work string) (result, error) {
	pr, err := runPlain(e, in, genesisPath, true)
	if err != nil {
		return result{}, err
	}
	e2e := pr.result(e)
	m := map[string]metric{}
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// (a) Counters, heap stats and client-side figures.
	add("cluster.kmeans_iterations", pr.afterSetup.counters["kmeans_iterations_total"], "count")
	req := pr.before.delta(pr.after, "search_requests_total")
	hitRatio := 0.0
	if req > 0 {
		hitRatio = pr.before.delta(pr.after, "search_cache_hits_total") / req
	}
	add("search.hit_ratio", hitRatio, "ratio")
	add("stream.fsyncs", pr.before.delta(pr.after, "wal_fsync_total"), "count")
	add("stream.visible_p50_ms", percentile(pr.statusVisible, 50), "ms")
	add("directory.ui_lag_ms", median(pr.uiLag), "ms")
	add("runtime.alloc_mb", (pr.after.totalAlloc-pr.before.totalAlloc)/(1<<20), "MiB")
	add("runtime.gc_cycles", float64(pr.after.numGC-pr.before.numGC), "count")
	add("runtime.gc_pause_ms", gcPauseMs(pr.before, pr.after), "ms")
	match := 0.0
	if pr.partitionMatch {
		match = 1
	}
	add("cafc.recovered_partition_match", match, "bool")

	// (b) In-process replay with spans.
	tr := &tracer{t0: time.Now()}
	inproc, err := replay(e, in, genesisPath, pr.data, tr, add)
	if err != nil {
		return result{}, err
	}
	var httpUs float64
	for kind, name := range opNames {
		d := median(pr.reads.lat[kind])*1000 - inproc[kind]
		add("directoryd.http_us_"+name, d, "us")
		httpUs += d * float64(mixBlock[kind]) / mixBlockLen
	}
	add("directoryd.http_us_per_op", httpUs, "us")

	overhead, err := traceOverhead(e, work, e2e)
	if err != nil {
		fmt.Printf("tracing overhead: %v\n", err)
	}
	for _, line := range overhead {
		fmt.Println(line)
	}
	out := filepath.Join(work, "results", fmt.Sprintf("trace-%s-seed%d", e.name, e.seed))
	os.RemoveAll(out)
	if err := saveJSON(filepath.Join(out, "per_layer.json"), map[string]any{
		"host": hostBlock(e, true), "per_layer": m, "traced_end_to_end": e2e.Metrics, "overhead": overhead, "checks": e.checks,
	}); err != nil {
		return result{}, err
	}
	if err := saveJSON(filepath.Join(out, "spans.json"), tr.spans); err != nil {
		return result{}, err
	}
	if err := os.Rename(filepath.Join(e.dir, "cpu.pprof"), filepath.Join(out, "cpu.pprof")); err != nil {
		return result{}, err
	}
	return result{Correct: e2e.Correct, Attempted: e2e.Attempted, Failed: e2e.Failed, Metrics: m}, nil
}

// traceOverhead compares the traced run's end-to-end figures with the
// plain run of the same workload and seed saved in this checkout.
func traceOverhead(e *env, work string, traced result) ([]string, error) {
	path := filepath.Join(work, "results", fmt.Sprintf("plain-%s-seed%d.json", e.name, e.seed))
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("no plain run of %s with seed %d in this checkout", e.name, e.seed)
	}
	if err != nil {
		return nil, err
	}
	var saved struct{ Result result }
	if err := json.Unmarshal(b, &saved); err != nil {
		return nil, err
	}
	var lines []string
	for _, n := range sortedKeys(traced.Metrics) {
		p := saved.Result.Metrics[n].Value
		if p == 0 {
			continue
		}
		t := traced.Metrics[n].Value
		lines = append(lines, fmt.Sprintf("tracing overhead %-20s traced %.6g plain %.6g %+.1f%%", n, t, p, (t-p)/p*100))
	}
	return lines, nil
}

func sortedKeys(m map[string]metric) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// uiHook restates directoryd's onPublish: rebuild the directory UI for
// an epoch, naming clusters by search labels where available.
func uiHook(e *cafc.LiveEpoch) http.Handler {
	html := make(map[string]string, len(e.Docs))
	for _, d := range e.Docs {
		html[d.URL] = d.HTML
	}
	labels := make([]string, len(e.Clustering.TopTerms))
	for i, terms := range e.Clustering.TopTerms {
		labels[i] = strings.Join(terms, " ")
	}
	for i := range labels {
		if i < len(e.SearchLabels) && e.SearchLabels[i] != "" {
			labels[i] = e.SearchLabels[i]
		}
	}
	return directory.Build(e.Clustering.Clusters, labels, html).Handler()
}

// replay is part (b). It returns the in-process p50 per op kind in µs.
func replay(e *env, in *inputs, genesisPath, data string, tr *tracer, add func(string, float64, string)) ([numOpKinds]float64, error) {
	var inproc [numOpKinds]float64
	scratch := filepath.Join(e.dir, "replay")
	os.RemoveAll(scratch)
	defer os.RemoveAll(scratch)

	// Genesis, as startLive builds it.
	root := tr.begin("genesis", 0)
	var d *dataset.Dataset
	var err error
	add("dataset.load_s", tr.timed("dataset.load", root, func() { d, err = dataset.Load(genesisPath) }), "s")
	if err != nil {
		return inproc, err
	}
	corpus := d.Corpus()
	var docs []cafc.Document
	for _, u := range corpus.FormPages {
		docs = append(docs, cafc.Document{URL: u, HTML: corpus.ByURL[u].HTML})
	}
	fps := make([]*form.FormPage, 0, len(docs))
	parseS := tr.timed("form.parse", root, func() {
		for _, doc := range docs {
			if fp, err := form.Parse(doc.URL, doc.HTML, form.DefaultWeights); err == nil {
				fps = append(fps, fp)
			}
		}
	})
	add("form.parse_s", parseS, "s")
	labels := map[string]string{}
	for u, dom := range corpus.Labels {
		labels[u] = string(dom)
	}
	opts := cafc.Options{SkipNonSearchable: true, Retry: &cafc.Retry{MaxAttempts: 3, Seed: e.seed}}
	var pub *cafc.Corpus
	newCorpusS := tr.timed("cafc.new_corpus", root, func() { pub, err = cafc.NewCorpus(docs, opts) })
	if err != nil {
		return inproc, err
	}
	add("cafc.model_build_s", newCorpusS-parseS, "s")

	// The hub and k-means stages run on an identical internal model, so
	// each is timed alone; the public clustering NewLive needs is then
	// computed untimed. The retry wrapper restates Corpus.ClusterCH's.
	model := icafc.BuildMetrics(fps, false, nil)
	var clusters []hub.Cluster
	add("hub.build_s", tr.timed("hub.build", root, func() {
		g := webgraph.FromCorpus(corpus)
		svc := webgraph.NewBacklinkService(g, 100, 0, e.seed)
		rb := &webgraph.ResilientBacklinks{
			Query:   svc.Backlinks,
			Policy:  retry.Policy{MaxAttempts: 3, Seed: e.seed},
			Breaker: retry.NewBreaker(0, 0, nil, nil, "backlink"),
		}
		clusters, _ = hub.BuildWith(pub.URLs(), corpus.RootOf, rb.Backlinks, hub.BuildOptions{})
	}), "s")
	add("cluster.genesis_kmeans_s", tr.timed("cluster.genesis_kmeans", root, func() {
		icafc.CAFCCH(model, k, clusters, 8, rand.New(rand.NewSource(e.seed+1)))
	}), "s")
	svc := webgraph.NewBacklinkService(webgraph.FromCorpus(corpus), 100, 0, e.seed)
	cl := pub.ClusterCH(k, svc.Backlinks, corpus.RootOf, e.seed)
	liveCfg := func(dir string, onPublish func(*cafc.LiveEpoch)) cafc.LiveConfig {
		return cafc.LiveConfig{K: k, Seed: e.seed, Dir: dir, OnPublish: onPublish,
			Quality: &cafc.QualityConfig{Seed: e.seed, Labels: labels}, Search: &cafc.SearchConfig{}}
	}
	var gl *cafc.Live
	add("cafc.genesis_publish_s", tr.timed("cafc.genesis_publish", root, func() {
		gl, err = cafc.NewLive(pub, docs, cl, liveCfg(filepath.Join(scratch, "genesis"), func(le *cafc.LiveEpoch) { uiHook(le) }), opts)
	}), "s")
	if err != nil {
		return inproc, err
	}
	gl.Close()
	tr.end(root)

	// Recovery pieces on the run's own state dir.
	rec := tr.begin("recover", 0)
	var info cafc.SnapshotInfo
	add("cafc.snapshot_load_s", tr.timed("cafc.snapshot_load", rec, func() {
		var rc io.ReadCloser
		if rc, err = stream.OpenSnapshotAt(data); err != nil {
			return
		}
		defer rc.Close()
		_, info, err = cafc.LoadSnapshot(rc, opts)
	}), "s")
	if err != nil {
		return inproc, err
	}
	add("cluster.recluster_s", tr.timed("cluster.recluster", rec, func() {
		icafc.CAFCC(model.Clone(), k, rand.New(rand.NewSource(e.seed+1)))
	}), "s")
	var frames []stream.Frame
	var walRead float64
	{
		st, err := stream.Open(data)
		if err != nil {
			return inproc, err
		}
		walRead = tr.timed("stream.wal_read", rec, func() { _, err = st.Records() })
		st.Close()
		if err != nil {
			return inproc, err
		}
	}
	add("stream.wal_read_s", walRead, "s")
	if frames, _, err = stream.TailWAL(data, 0); err != nil {
		return inproc, err
	}
	off := int(info.WALOffset)
	if off < 1 || off > len(frames) {
		return inproc, fmt.Errorf("snapshot WAL offset %d outside the WAL's %d records", off, len(frames))
	}
	follower, err := bootstrapFollower(data, filepath.Join(scratch, "follower"), frames[:off], liveCfg, opts, tr, rec)
	if err != nil {
		return inproc, err
	}
	defer follower.Close()
	tr.end(rec)

	// Replay the WAL tail record by record.
	sh, err := newShadow(model, follower.Epoch(), labels, e.seed, filepath.Join(scratch, "shadow-wal"))
	if err != nil {
		return inproc, err
	}
	defer sh.wal.Close()
	var sums struct{ parse, clone, appendS, assign, wal, index, quality, convert, build, apply, unattr, docs float64 }
	var ui http.Handler
	replayed := 0
	for _, f := range frames[off:] {
		if len(f.Rec.Docs) == 0 {
			continue // a forced-rebuild marker; none are written by these workloads
		}
		id := tr.begin("stream.apply", 0)
		if err := follower.ApplyFrame(f); err != nil {
			return inproc, err
		}
		var le *cafc.LiveEpoch
		conv := tr.timed("cafc.convert", id, func() { le = follower.Epoch() })
		build := tr.timed("directory.build", id, func() { ui = uiHook(le) })
		apply := tr.end(id)
		st, err := sh.stages(f, le, tr, id)
		if err != nil {
			return inproc, err
		}
		sums.parse += st.parse
		sums.clone += st.clone
		sums.appendS += st.appendS
		sums.assign += st.assign
		sums.wal += st.wal
		sums.index += st.index
		sums.quality += st.quality
		sums.convert += conv
		sums.build += build
		sums.apply += apply
		sums.unattr += apply - conv - build - st.total()
		sums.docs += float64(len(f.Rec.Docs))
		replayed++
	}
	perEpoch := func(x float64) float64 {
		if replayed == 0 {
			return 0
		}
		return x / float64(replayed) * 1000
	}
	add("stream.epochs", float64(replayed), "count")
	add("stream.docs_per_epoch", perEpoch(sums.docs)/1000, "docs")
	add("form.parse_ms_per_epoch", perEpoch(sums.parse), "ms")
	add("cafc.clone_ms_per_epoch", perEpoch(sums.clone), "ms")
	add("cafc.append_ms_per_epoch", perEpoch(sums.appendS), "ms")
	add("cluster.assign_ms_per_epoch", perEpoch(sums.assign), "ms")
	add("stream.wal_ms_per_epoch", perEpoch(sums.wal), "ms")
	add("search.index_ms_per_epoch", perEpoch(sums.index), "ms")
	add("quality.observe_ms_per_epoch", perEpoch(sums.quality), "ms")
	add("cafc.convert_ms_per_epoch", perEpoch(sums.convert), "ms")
	add("directory.build_ms_per_epoch", perEpoch(sums.build), "ms")
	add("stream.apply_ms_per_epoch", perEpoch(sums.apply), "ms")
	add("stream.unattributed_ms_per_epoch", perEpoch(sums.unattr), "ms")
	// Recovery replays without writing the WAL.
	add("stream.replay_s", sums.apply-sums.wal, "s")

	// The run's measured read sequence against the final epoch.
	if ui == nil {
		ui = uiHook(follower.Epoch())
	}
	inproc = sh.reads(in, in.reads[e.warmReads():], follower.Epoch(), ui, tr, add)
	return inproc, nil
}

// bootstrapFollower seeds dir with the run's snapshot and the WAL prefix
// it covers, then opens a follower on it (snapshot load, CAFC-C
// re-cluster of the recovered corpus).
func bootstrapFollower(data, dir string, prefix []stream.Frame, cfg func(string, func(*cafc.LiveEpoch)) cafc.LiveConfig, opts cafc.Options, tr *tracer, parent int) (*cafc.Live, error) {
	st, err := stream.Open(dir)
	if err != nil {
		return nil, err
	}
	for _, f := range prefix {
		if err := st.AppendFrame(f); err != nil {
			st.Close()
			return nil, err
		}
	}
	rc, err := stream.OpenSnapshotAt(data)
	if err != nil {
		st.Close()
		return nil, err
	}
	err = st.WriteSnapshot(func(w io.Writer) error { _, err := io.Copy(w, rc); return err })
	rc.Close()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	var f *cafc.Live
	tr.timed("cafc.recover_follower", parent, func() { f, err = cafc.RecoverFollower(cfg(dir, nil), opts) })
	return f, err
}

// shadow mirrors the follower's per-epoch state with internal types so
// each stage of a record can be re-run and timed on the same inputs.
type shadow struct {
	m         *icafc.Model
	assign    []int
	centroids []cluster.Point
	sb        *search.Builder
	qm        *quality.Monitor
	wal       *stream.Store
	pacc      *vector.Accumulator
	facc      *vector.Accumulator
}

func newShadow(genesis *icafc.Model, e *cafc.LiveEpoch, labels map[string]string, seed int64, walDir string) (*shadow, error) {
	sh := &shadow{
		m:    genesis.Clone(),
		sb:   search.NewBuilder(nil),
		qm:   quality.New(quality.Config{Seed: seed, Labels: labels}),
		pacc: vector.NewAccumulator(0),
		facc: vector.NewAccumulator(0),
	}
	urls := e.Corpus.URLs()
	if len(urls) != sh.m.Len() {
		return nil, fmt.Errorf("shadow model has %d pages, recovered epoch %d", sh.m.Len(), len(urls))
	}
	for i, u := range urls {
		if sh.m.Pages[i].URL != u {
			return nil, fmt.Errorf("shadow page %d is %s, recovered epoch has %s", i, sh.m.Pages[i].URL, u)
		}
	}
	sh.syncClustering(e)
	for _, d := range e.Docs {
		title, terms := search.PageTerms(d.URL, d.HTML, form.DefaultWeights)
		sh.sb.Add(d.URL, title, terms)
	}
	sh.qm.ObserveEpoch(sh.qualityEpoch(e.Epoch, sh.m, sh.assign, sh.centroids, true), time.Now())
	var err error
	sh.wal, err = stream.Open(walDir)
	return sh, err
}

// syncClustering adopts the follower's assignment and recomputes its
// centroids on the shadow model (after genesis and full re-clusters).
func (sh *shadow) syncClustering(e *cafc.LiveEpoch) {
	sh.assign = make([]int, sh.m.Len())
	for i, p := range sh.m.Pages {
		sh.assign[i] = e.Clustering.Assign[p.URL]
	}
	sh.centroids = make([]cluster.Point, k)
	for c, members := range cluster.Members(sh.assign, k) {
		sh.centroids[c] = sh.m.CentroidWith(members, sh.pacc, sh.facc)
	}
}

func (sh *shadow) qualityEpoch(seq int64, m *icafc.Model, assign []int, centroids []cluster.Point, rebuilt bool) quality.Epoch {
	return quality.Epoch{Seq: seq, Space: m, Assign: assign, K: k, Centroids: centroids, Rebuilt: rebuilt,
		URL: func(i int) string { return m.Pages[i].URL }}
}

type stageTimes struct{ parse, clone, appendS, assign, wal, index, quality float64 }

func (s stageTimes) total() float64 {
	return s.parse + s.clone + s.appendS + s.assign + s.wal + s.index + s.quality
}

// stages re-runs one record's per-epoch stages on the shadow state, as
// children of the record's apply span, and advances the shadow.
func (sh *shadow) stages(f stream.Frame, le *cafc.LiveEpoch, tr *tracer, parent int) (stageTimes, error) {
	var st stageTimes
	var parsed []*form.FormPage
	st.parse = tr.timed("form.parse", parent, func() { parsed = stream.ParseDocs(f.Rec.Docs, form.DefaultWeights, 0) })
	var fps []*form.FormPage
	for _, fp := range parsed {
		if fp != nil {
			fps = append(fps, fp)
		}
	}
	var m *icafc.Model
	st.clone = tr.timed("cafc.clone", parent, func() { m = sh.m.Clone() })
	st.appendS = tr.timed("cafc.append", parent, func() { m.AppendPages(fps) })
	var assign []int
	var centroids []cluster.Point
	// The drift fraction only decides a full re-cluster, which the
	// follower's epoch reports (le.Rebuilt); that cost is unattributed.
	st.assign = tr.timed("cluster.assign", parent, func() { assign, centroids, _ = sh.miniBatch(m) })
	var err error
	st.wal = tr.timed("stream.wal", parent, func() { err = sh.wal.AppendFrame(f) })
	if err != nil {
		return st, err
	}
	st.index = tr.timed("search.index", parent, func() {
		for _, fp := range fps {
			sh.sb.Add(fp.URL, fp.Title, fp.PCTerms)
		}
		sh.sb.Freeze(le.Epoch, assign, k, search.Options{})
	})
	st.quality = tr.timed("quality.observe", parent, func() {
		sh.qm.ObserveEpoch(sh.qualityEpoch(le.Epoch, m, assign, centroids, false), time.Now())
	})
	sh.m, sh.assign, sh.centroids = m, assign, centroids
	if le.Rebuilt {
		sh.m.ReembedAll()
		sh.syncClustering(le)
	}
	return st, nil
}

// miniBatch restates the stream's incremental assignment: new pages go
// to their nearest centroid through the centroid index, touched
// centroids are refreshed, and the whole corpus is re-scored to measure
// drift.
func (sh *shadow) miniBatch(m *icafc.Model) ([]int, []cluster.Point, float64) {
	centroids := append([]cluster.Point(nil), sh.centroids...)
	assign := make([]int, m.Len())
	copy(assign, sh.assign)
	nearest := nearestFn(m, centroids)
	touched := map[int]bool{}
	for i := len(sh.assign); i < m.Len(); i++ {
		assign[i] = nearest(i)
		touched[assign[i]] = true
	}
	members := cluster.Members(assign, k)
	for c := range touched {
		centroids[c] = m.CentroidWith(members[c], sh.pacc, sh.facc)
	}
	nearest = nearestFn(m, centroids)
	moved := 0
	for i := 0; i < m.Len(); i++ {
		if nearest(i) != assign[i] {
			moved++
		}
	}
	return assign, centroids, float64(moved) / float64(m.Len())
}

func nearestFn(m *icafc.Model, centroids []cluster.Point) func(int) int {
	ix := m.NewCentroidIndex(centroids)
	sims := make([]float64, len(centroids))
	scratch := make([]float64, ix.ScratchLen())
	return func(i int) int {
		ix.Sims(sims, scratch, i)
		best, bestSim := 0, -1.0
		for c, s := range sims {
			if s > bestSim {
				best, bestSim = c, s
			}
		}
		return best
	}
}

// reads replays the measured read ops in process against the final
// epoch and returns each kind's in-process p50 in µs.
func (sh *shadow) reads(in *inputs, ops []op, le *cafc.LiveEpoch, ui http.Handler, tr *tracer, add func(string, float64, string)) [numOpKinds]float64 {
	id := tr.begin("reads", 0)
	defer tr.end(id)
	snap := sh.sb.Freeze(le.Epoch, sh.assign, k, search.Options{})
	cl := icafc.NewClassifierFromCentroids(sh.m, sh.centroids, make([]string, k))
	var parseUs, scoreUs, missUs, hitUs, browseUs []float64
	var whole [numOpKinds][]float64
	us := func(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }
	for _, o := range ops {
		switch o.kind {
		case opClassify:
			d := in.classifyDocs[o.arg]
			t0 := time.Now()
			fp, err := form.Parse(d.URL, d.HTML, form.DefaultWeights)
			parseUs = append(parseUs, us(t0))
			if err == nil {
				t1 := time.Now()
				cl.Classify(fp)
				scoreUs = append(scoreUs, us(t1))
			}
			t2 := time.Now()
			le.Classify(cafc.Document{URL: d.URL, HTML: d.HTML})
			whole[opClassify] = append(whole[opClassify], us(t2))
		case opSearch:
			t0 := time.Now()
			_, cached := snap.Search(in.queries[o.arg], 0)
			d := us(t0)
			if cached {
				hitUs = append(hitUs, d)
			} else {
				missUs = append(missUs, d)
			}
			whole[opSearch] = append(whole[opSearch], d)
		case opBrowse:
			rr := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodGet, in.browsePaths[o.arg], nil)
			t0 := time.Now()
			ui.ServeHTTP(rr, r)
			d := us(t0)
			browseUs = append(browseUs, d)
			whole[opBrowse] = append(whole[opBrowse], d)
		}
	}
	add("form.parse_us_per_classify", median(parseUs), "us")
	add("cafc.score_us_per_classify", median(scoreUs), "us")
	add("search.miss_us", median(missUs), "us")
	add("search.hit_us", median(hitUs), "us")
	add("directory.browse_us", median(browseUs), "us")
	var p50 [numOpKinds]float64
	for kind := range whole {
		p50[kind] = median(whole[kind])
	}
	return p50
}
