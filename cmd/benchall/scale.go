package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	icafc "cafc/internal/cafc"
	"cafc/internal/cluster"
	"cafc/internal/form"
	"cafc/internal/obs"
	"cafc/internal/stream"
	"cafc/internal/webgen"
)

// serialCheckMax bounds the corpus size at which the bench rebuilds the
// model serially to verify parallel-build bit-identity. Above it the
// duplicate build would dominate the run (build is the most expensive
// phase); the property itself is worker-count-independent by
// construction and pinned at every size class by
// TestBuildParallelBitIdentical.
const serialCheckMax = 50000

// scaleKernel is one kernel measurement at one corpus size.
type scaleKernel struct {
	Kernel     string `json:"kernel"`
	Millis     int64  `json:"millis"`
	Iterations int    `json:"iterations"`
	Distances  int64  `json:"distance_computations"`
	Pruned     int64  `json:"pruned_points"`
	// Reduction is the exhaustive run's total distance computations
	// divided by this kernel's total.
	Reduction float64 `json:"distance_reduction"`
	// PerIterReduction is the exhaustive per-pass cost (n*k) divided by
	// this kernel's mean distance computations per assignment pass — the
	// per-pass speedup curve, independent of how many rounds each
	// trajectory takes.
	PerIterReduction float64 `json:"distance_reduction_per_iter,omitempty"`
}

// scaleSize is every measurement for one corpus size.
type scaleSize struct {
	FormPages   int   `json:"form_pages"`
	K           int   `json:"k"`
	ParseMillis int64 `json:"parse_millis"`
	// BuildMillis is the BuildWith wall-clock at the default worker
	// count; TFIDFMillis and CompileMillis split it (read from the build
	// registry's phase histograms) into document-frequency counting plus
	// term records (each page's TF and summed LOC per term), and the
	// embed that weighs each record term by its IDF and packs it into
	// the engine, dictionaries included.
	BuildMillis   int64 `json:"model_build_millis"`
	TFIDFMillis   int64 `json:"tfidf_millis"`
	CompileMillis int64 `json:"compile_millis"`
	// HeapBytesPerPage is the live heap the built model retains (after
	// a GC, with the corpus, HTML and parsed pages dropped) over its
	// pages: URLs, term records, packed vectors, dictionaries and DF
	// tables.
	HeapBytesPerPage int64 `json:"heap_bytes_per_page"`
	// BuildSerialMillis is the Workers:1 reference build, measured while
	// verifying the parallel build is bit-identical to it; 0 above
	// serialCheckMax where the duplicate build is skipped.
	BuildSerialMillis int64         `json:"build_serial_millis,omitempty"`
	Kernels           []scaleKernel `json:"kernels"`
	ClassifyNsOp      int64         `json:"classify_ns_per_op"`
	ClassifyAllocs    int64         `json:"classify_allocs_per_op"`
}

// scaleReport is the BENCH_scale.json schema.
type scaleReport struct {
	Host hostInfo `json:"host"`
	Seed int64    `json:"seed"`
	// MoveFrac is the k-means convergence threshold used for every
	// kernel run. It is set effectively to zero (stop only when no point
	// moves) so the runs converge fully — the regime where bound pruning
	// pays, and the one a growing directory actually operates in; the
	// library default stops far earlier.
	MoveFrac float64     `json:"move_frac"`
	Sizes    []scaleSize `json:"sizes"`
}

// scaleBench measures the bound-pruned kernel against the exhaustive
// reference on forms-only corpora of the given sizes, plus the model
// build (parallel vs serial) and the classify serve path. Every pruned
// run is checked byte-identical to the exhaustive assignment and
// strictly cheaper in distance computations; a violation is an error,
// so CI smokes fail loudly instead of recording a regression.
func scaleBench(sizes []int, seed int64) (scaleReport, error) {
	rep := scaleReport{Host: currentHost(), Seed: seed, MoveFrac: 1e-12}
	k := len(webgen.Domains)
	printKernelHeader()
	for _, n := range sizes {
		base := liveHeap()
		t0 := time.Now()
		c := webgen.Generate(webgen.Config{Seed: seed, FormPages: n, FormsOnly: true})
		docs := make([]stream.Doc, 0, n)
		labels := make([]string, 0, n)
		for _, u := range c.FormPages {
			docs = append(docs, stream.Doc{URL: u, HTML: c.ByURL[u].HTML})
			labels = append(labels, string(c.Labels[u]))
		}
		// The same sharded parse stage the live pipeline runs per batch;
		// nil slots are parse failures.
		parsed := stream.ParseDocs(docs, form.DefaultWeights, 0)
		fps := make([]*form.FormPage, len(parsed))
		for i, fp := range parsed {
			if fp == nil {
				return rep, fmt.Errorf("%s: parse failed", docs[i].URL)
			}
			fps[i] = fp
		}
		c, docs, parsed = nil, nil, nil // release the corpus and raw HTML before the model build
		row := scaleSize{FormPages: n, K: k, ParseMillis: time.Since(t0).Milliseconds()}

		breg := obs.NewRegistry()
		t1 := time.Now()
		m := icafc.BuildWith(fps, icafc.BuildOpts{Metrics: breg, Workers: 0})
		row.BuildMillis = time.Since(t1).Milliseconds()
		row.TFIDFMillis = histogramSumMillis(breg, "model_df_build_seconds") +
			histogramSumMillis(breg, "vector_tfidf_build_seconds")
		row.CompileMillis = histogramSumMillis(breg, "vector_compile_seconds")
		fmt.Printf("# n=%d parse=%dms build=%dms (tfidf=%dms compile=%dms)\n",
			n, row.ParseMillis, row.BuildMillis, row.TFIDFMillis, row.CompileMillis)

		if n <= serialCheckMax {
			t2 := time.Now()
			ms := icafc.BuildWith(fps, icafc.BuildOpts{Workers: 1})
			row.BuildSerialMillis = time.Since(t2).Milliseconds()
			for i := 0; i < ms.Len(); i++ {
				if !reflect.DeepEqual(ms.Point(i), m.Point(i)) {
					return rep, fmt.Errorf("n=%d: parallel build not bit-identical to serial at point %d", n, i)
				}
			}
		}
		fps = nil
		row.HeapBytesPerPage = (liveHeap() - base) / int64(n)
		fmt.Printf("# n=%d heap=%d bytes/page\n", n, row.HeapBytesPerPage)

		var ref cluster.Result
		for _, prune := range []cluster.PruneMode{cluster.PruneOff, cluster.PruneHamerly} {
			reg := obs.NewRegistry()
			t1 := time.Now()
			res := cluster.KMeans(m, k, nil, cluster.Options{
				Rand: rand.New(rand.NewSource(seed)), Prune: prune,
				MoveFrac: rep.MoveFrac, Metrics: reg,
			})
			kr := scaleKernel{
				Kernel:     prune.String(),
				Millis:     time.Since(t1).Milliseconds(),
				Iterations: res.Iterations,
				Distances:  counterValue(reg, "distance_computations_total"),
				Pruned:     counterValue(reg, "kmeans_pruned_total"),
			}
			kr.PerIterReduction = perIterReduction(n, k, kr.Iterations, kr.Distances)
			if prune == cluster.PruneOff {
				ref = res
				kr.Reduction = 1
			} else {
				if !reflect.DeepEqual(ref.Assign, res.Assign) {
					return rep, fmt.Errorf("n=%d prune=%s: assignments differ from exhaustive", n, prune)
				}
				if res.Iterations != ref.Iterations {
					return rep, fmt.Errorf("n=%d prune=%s: iterations %d != exhaustive %d", n, prune, res.Iterations, ref.Iterations)
				}
				if kr.Distances >= row.Kernels[0].Distances {
					return rep, fmt.Errorf("n=%d prune=%s: %d distance computations, not below exhaustive %d",
						n, prune, kr.Distances, row.Kernels[0].Distances)
				}
				kr.Reduction = float64(row.Kernels[0].Distances) / float64(kr.Distances)
			}
			printKernelRow(n, kr)
			row.Kernels = append(row.Kernels, kr)
		}

		// Serve-path throughput: classify one held-out page against the
		// trained centroids through the pooled fast path.
		probe, err := heldOutPage(seed + 1)
		if err != nil {
			return rep, err
		}
		clf := icafc.NewClassifier(m, ref, majorityLabels(ref, labels))
		row.ClassifyNsOp, row.ClassifyAllocs = benchClassify(clf, probe)
		fmt.Printf("# n=%d serial_build=%dms classify=%dns/op\n",
			n, row.BuildSerialMillis, row.ClassifyNsOp)
		rep.Sizes = append(rep.Sizes, row)
	}
	return rep, nil
}

// liveHeap returns the live heap after two GCs (the second empties the
// sync.Pool victim caches, such as the parser pool's tokenizer memos).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// perIterReduction is the exhaustive per-pass cost n*k over a kernel's
// mean distance computations per assignment pass.
func perIterReduction(n, k, iters int, dist int64) float64 {
	if iters == 0 || dist == 0 {
		return 0
	}
	return float64(n) * float64(k) * float64(iters) / float64(dist)
}

// benchClassify measures one classifier's steady-state Classify cost.
func benchClassify(clf *icafc.Classifier, probe *form.FormPage) (nsOp, allocs int64) {
	clf.Classify(probe) // warm pool + lazy engine
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clf.Classify(probe)
		}
	})
	return br.NsPerOp(), br.AllocsPerOp()
}

// majorityLabels names each cluster after its majority gold label.
func majorityLabels(res cluster.Result, classes []string) []string {
	counts := make([]map[string]int, res.K)
	for i := range counts {
		counts[i] = map[string]int{}
	}
	for i, c := range res.Assign {
		if c >= 0 && c < res.K {
			counts[c][classes[i]]++
		}
	}
	labels := make([]string, res.K)
	for c, m := range counts {
		best := 0
		for l, n := range m {
			if n > best || (n == best && l < labels[c]) {
				labels[c], best = l, n
			}
		}
	}
	return labels
}

// heldOutPage parses one form page the training corpus has never seen.
func heldOutPage(seed int64) (*form.FormPage, error) {
	c := webgen.Generate(webgen.Config{Seed: seed, FormPages: 1, FormsOnly: true})
	u := c.FormPages[0]
	return form.Parse(u, c.ByURL[u].HTML, form.DefaultWeights)
}

// counterValue reads one counter family from a registry snapshot.
func counterValue(reg *obs.Registry, name string) int64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return int64(s.Value)
		}
	}
	return 0
}

// histogramSumMillis reads one histogram family's observation sum (in
// seconds) from a registry snapshot and converts it to milliseconds.
func histogramSumMillis(reg *obs.Registry, name string) int64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return int64(s.Sum * 1000)
		}
	}
	return 0
}

// printKernelHeader / printKernelRow emit the human-readable table
// incrementally, one row per finished kernel run — a full sweep takes
// the better part of an hour, and a contract violation should leave
// every number measured before it on the terminal.
func printKernelHeader() {
	fmt.Printf("%10s %12s %6s %12s %14s %12s %10s %10s\n",
		"formPages", "kernel", "iters", "ms", "distances", "pruned", "reduction", "perpass")
}

func printKernelRow(n int, kr scaleKernel) {
	fmt.Printf("%10d %12s %6d %12d %14d %12d %9.2fx %9.2fx\n",
		n, kr.Kernel, kr.Iterations, kr.Millis, kr.Distances, kr.Pruned,
		kr.Reduction, kr.PerIterReduction)
}

// writeScaleJSON writes the JSON report to path (the table itself is
// printed incrementally by scaleBench).
func writeScaleJSON(rep scaleReport, path string) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", path)
	return nil
}
