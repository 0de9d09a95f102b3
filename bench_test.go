package cafc

// The benchmarks below regenerate every table and figure of the paper's
// evaluation over the full-size synthetic corpus (454 form pages, the
// paper's count). Each bench reports the experiment's quality numbers as
// custom metrics (entropy, F-measure) alongside the usual ns/op, so
// `go test -bench=. -benchmem` reproduces the evaluation end to end.
//
//	BenchmarkFigure2   — Figure 2  (CAFC-C / CAFC-CH × FC / PC / FC+PC)
//	BenchmarkTable1    — Table 1   (form size vs page terms outside form)
//	BenchmarkFigure3   — Figure 3  (min hub-cardinality sweep)
//	BenchmarkTable2    — Table 2   (HAC vs k-means)
//	BenchmarkWeights   — §4.4     (differentiated vs uniform weights)
//	BenchmarkHubStats  — §3.1     (hub-cluster statistics)
//	BenchmarkHACSeeds  — §4.3     (HAC-derived seeds vs hub clusters)
//	BenchmarkErrors    — §4.2     (error analysis)
//	BenchmarkScaling   — extension (corpus-size sweep)
//	BenchmarkPipeline  — end-to-end corpus build + CAFC-CH
//	BenchmarkSnapshot  — snapshot save/load, v2 vs v3, with file bytes

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	icafc "cafc/internal/cafc"
	"cafc/internal/cluster"
	"cafc/internal/experiments"
	"cafc/internal/metrics"
	"cafc/internal/webgen"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

// benchEnvironment lazily builds the paper-sized environment shared by the
// experiment benches.
func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		env, err := experiments.NewEnv(webgen.Config{Seed: 2007, FormPages: 454})
		if err != nil {
			b.Fatal(err)
		}
		benchEnv = env
	})
	if benchEnv == nil {
		b.Fatal("environment failed to build")
	}
	return benchEnv
}

// unit sanitizes a metric unit: ReportMetric rejects whitespace.
func unit(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', ',':
			return '_'
		}
		return r
	}, s)
}

// report attaches a quality row's numbers to the bench output.
func report(b *testing.B, suffix string, entropy, f float64) {
	b.ReportMetric(entropy, unit("entropy/"+suffix))
	b.ReportMetric(f, unit("F/"+suffix))
}

func BenchmarkFigure2(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.QualityRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure2(env, 5, experiments.DefaultMinCard)
	}
	for _, r := range rows {
		report(b, r.Algorithm+"/"+r.Features, r.Entropy, r.FMeasure)
	}
}

func BenchmarkTable1(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(env)
	}
	for _, r := range rows {
		if r.Count > 0 {
			b.ReportMetric(r.AvgOutside, unit("outside-terms/"+r.Bucket))
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	env := benchEnvironment(b)
	var sweep []experiments.Figure3Row
	var ref float64
	for i := 0; i < b.N; i++ {
		sweep, ref = experiments.Figure3(env, 5)
	}
	for _, p := range sweep {
		b.ReportMetric(p.Entropy, unit("entropy/minCard="+itoa(p.MinCardinality)))
	}
	b.ReportMetric(ref, "entropy/CAFC-C-ref")
}

func BenchmarkTable2(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.QualityRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2(env, 5, experiments.DefaultMinCard)
	}
	for _, r := range rows {
		report(b, r.Algorithm, r.Entropy, r.FMeasure)
	}
}

func BenchmarkWeights(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.QualityRow
	for i := 0; i < b.N; i++ {
		rows = experiments.WeightAblation(env, experiments.DefaultMinCard)
	}
	for _, r := range rows {
		report(b, r.Algorithm, r.Entropy, r.FMeasure)
	}
}

func BenchmarkHubStats(b *testing.B) {
	env := benchEnvironment(b)
	var r experiments.HubStatsResult
	for i := 0; i < b.N; i++ {
		r = experiments.HubStatsExp(env)
	}
	b.ReportMetric(float64(r.Stats.Clusters), "hub-clusters")
	b.ReportMetric(100*r.HomogeneousFrac, "homogeneous-pct")
	b.ReportMetric(100*r.NoBacklinkFrac, "no-backlink-pct")
	b.ReportMetric(float64(r.AfterMinCardinal), "clusters-after-prune")
}

func BenchmarkHACSeeds(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.QualityRow
	for i := 0; i < b.N; i++ {
		rows = experiments.HACSeedsExp(env, experiments.DefaultMinCard)
	}
	for _, r := range rows {
		report(b, r.Algorithm, r.Entropy, r.FMeasure)
	}
}

func BenchmarkErrors(b *testing.B) {
	env := benchEnvironment(b)
	var r experiments.ErrorResult
	for i := 0; i < b.N; i++ {
		r = experiments.ErrorAnalysis(env, experiments.DefaultMinCard)
	}
	b.ReportMetric(float64(r.Misclustered), "misclustered")
	b.ReportMetric(float64(r.SingleAttrErrors), "single-attr-errors")
	b.ReportMetric(100*r.MusicMovieFraction, "music-movie-pct")
}

func BenchmarkSeedingAblation(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.QualityRow
	for i := 0; i < b.N; i++ {
		rows = experiments.SeedingAblation(env, 5)
	}
	for _, r := range rows {
		report(b, r.Algorithm, r.Entropy, r.FMeasure)
	}
}

func BenchmarkScaling(b *testing.B) {
	var rows []experiments.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Scaling([]int{100, 200, 454}, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.FMeasure, "F/n="+itoa(r.FormPages))
		b.ReportMetric(float64(r.Millis), "ms/n="+itoa(r.FormPages))
	}
}

// BenchmarkPipeline measures the end-to-end public API path: parse every
// document, build the model, run CAFC-CH.
func BenchmarkPipeline(b *testing.B) {
	c := webgen.Generate(webgen.Config{Seed: 99, FormPages: 200})
	var docs []Document
	for _, u := range c.FormPages {
		docs = append(docs, Document{URL: u, HTML: c.ByURL[u].HTML})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corpus, err := NewCorpus(docs)
		if err != nil {
			b.Fatal(err)
		}
		corpus.ClusterC(8, int64(i))
	}
}

// BenchmarkKMeans454 times the compiled (term-interned packed vector)
// engine on the paper-sized corpus, serial and with the parallel
// kernels on. Both run the identical CAFC-CH k-means refinement — same
// hub seeds, same randomness — so the reported entropy/F must match
// across sub-benches while ns/op shows the speedup.
func BenchmarkKMeans454(b *testing.B) {
	env := benchEnvironment(b)
	seeds := icafc.SelectHubClusters(env.Model, env.HubClusters, env.K, experiments.DefaultMinCard)
	run := func(m *icafc.Model, workers int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var res cluster.Result
			for i := 0; i < b.N; i++ {
				res = cluster.KMeans(m, env.K, seeds, cluster.Options{
					Rand:    rand.New(rand.NewSource(1)),
					Workers: workers,
				})
			}
			l := metrics.Labeling{Assign: res.Assign, Classes: env.Classes}
			report(b, "CAFC-CH", metrics.Entropy(l), metrics.FMeasure(l))
		}
	}
	b.Run("compiled-serial", run(env.Model, 1))
	b.Run("compiled-parallel", run(env.Model, 0))
}

// BenchmarkEngineComparison runs the experiments-layer engine report on
// the 454-page corpus and republishes its numbers as bench metrics.
func BenchmarkEngineComparison(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.EngineRow
	for i := 0; i < b.N; i++ {
		rows = experiments.EngineComparison(env, 1)
	}
	for _, r := range rows {
		b.ReportMetric(r.Millis, unit("ms/"+r.Engine))
		b.ReportMetric(r.Entropy, unit("entropy/"+r.Engine))
	}
}

// BenchmarkEngineScaling holds the engine comparison at 454 pages and a
// 10x corpus to show the gap widening with corpus size (similarity cost
// dominates as n grows).
func BenchmarkEngineScaling(b *testing.B) {
	for _, n := range []int{454, 4540} {
		env, err := experiments.NewEnv(webgen.Config{Seed: 2007, FormPages: n})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("n="+itoa(n), func(b *testing.B) {
			var rows []experiments.EngineRow
			for i := 0; i < b.N; i++ {
				rows = experiments.EngineComparison(env, 1)
			}
			for _, r := range rows {
				b.ReportMetric(r.Millis, unit("ms/"+r.Engine))
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkHubDesignAblation(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.QualityRow
	for i := 0; i < b.N; i++ {
		rows = experiments.HubDesignAblation(env, experiments.DefaultMinCard)
	}
	for _, r := range rows {
		report(b, r.Algorithm, r.Entropy, r.FMeasure)
	}
}

func BenchmarkFutureWork(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.QualityRow
	for i := 0; i < b.N; i++ {
		rows = experiments.FutureWork(env, experiments.DefaultMinCard)
	}
	for _, r := range rows {
		report(b, r.Algorithm, r.Entropy, r.FMeasure)
	}
}

func BenchmarkPostQuery(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.PostQueryRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.PostQuery(env, experiments.DefaultMinCard)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.FMeasure, unit("F/"+r.Approach+"/"+r.Subset))
	}
}

// BenchmarkIngest measures live streaming-ingestion throughput: each
// document flows through the full batch pipeline (parse, DF growth,
// incremental compile, mini-batch assignment, epoch publish). Reported
// as docs/sec alongside ns/op.
func BenchmarkIngest(b *testing.B) {
	c := webgen.Generate(webgen.Config{Seed: 77, FormPages: 200})
	var docs []Document
	for _, u := range c.FormPages {
		docs = append(docs, Document{URL: u, HTML: c.ByURL[u].HTML})
	}
	genesis := docs[:40]
	streamed := docs[40:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		corpus, err := NewCorpus(genesis)
		if err != nil {
			b.Fatal(err)
		}
		cl := corpus.ClusterC(8, 1)
		l, err := NewLive(corpus, genesis, cl, LiveConfig{
			K: 8, Seed: 1, BatchSize: 32, FlushInterval: time.Millisecond,
			DriftThreshold: 2, // isolate the incremental path from rebuild cost
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, d := range streamed {
			for {
				err := l.Ingest(d)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrBacklog) {
					b.Fatal(err)
				}
			}
		}
		for l.Epoch().Corpus.Len() < len(docs) {
			time.Sleep(100 * time.Microsecond)
		}
		b.StopTimer()
		l.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N*len(streamed))/b.Elapsed().Seconds(), "docs/sec")
}

// BenchmarkSnapshot times saving a live directory's snapshot in the
// version 2 format (gob + gzip of map vectors, the reference) and in
// version 3, and loading version 3, the one LoadSnapshot reads, at the
// paper's 454 pages, serve's 2000 and 5000, reporting each file's
// bytes. The v3 snapshot carries a k = 8 partition, as a live
// checkpoint does.
func BenchmarkSnapshot(b *testing.B) {
	for _, n := range []int{454, 2000, 5000} {
		docs, _, _, _ := testDocs(b, 4001, n)
		c, err := NewCorpus(docs, Options{SkipNonSearchable: true})
		if err != nil {
			b.Fatal(err)
		}
		res := icafc.CAFCC(c.model, 8, rand.New(rand.NewSource(1)))
		info := SnapshotInfo{Epoch: 1, WALOffset: 1}
		pcs, fcs := tfidfMaps(b, c, docs)
		formats := []struct {
			name string
			save func(io.Writer) error
		}{
			{"v2", func(w io.Writer) error { return saveV2(c, pcs, fcs, w, info) }},
			{"v3", func(w io.Writer) error { return c.saveSnapshot(w, info, &res) }},
		}
		for _, f := range formats {
			var buf bytes.Buffer
			if err := f.save(&buf); err != nil {
				b.Fatal(err)
			}
			file := buf.Bytes()
			b.Run(fmt.Sprintf("save/%s/pages=%d", f.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := f.save(io.Discard); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(file)), "bytes")
			})
			if f.name != "v3" {
				continue
			}
			b.Run(fmt.Sprintf("load/%s/pages=%d", f.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := loadSnapshot(bytes.NewReader(file), Options{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(file)), "bytes")
			})
		}
	}
}
