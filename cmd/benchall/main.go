// Command benchall runs the paper's full experimental evaluation and
// prints every table and figure, or a single experiment selected with
// -exp.
//
// Usage:
//
//	benchall -n 454 -seed 2007 -runs 20              # everything
//	benchall -exp figure2                            # one experiment
//	benchall -exp scaling -sizes 100,200,454,1000
//	benchall -exp scale -sizes 5000,20000,50000      # pruned-kernel curve
//	benchall -exp scale -cpuprofile cpu.out -memprofile mem.out
//
// -cpuprofile and -memprofile write pprof files of the run (the heap
// profile at its end, after a GC), so a BENCH number ships with the
// profile that explains it: go tool pprof -top mem.out.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"cafc/internal/dataset"
	"cafc/internal/experiments"
	"cafc/internal/obs"
	"cafc/internal/webgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchall: ")
	var (
		n       = flag.Int("n", 454, "form pages in the generated corpus")
		seed    = flag.Int64("seed", 2007, "corpus seed")
		runs    = flag.Int("runs", experiments.DefaultRuns, "CAFC-C averaging runs")
		exp     = flag.String("exp", "all", "experiment: all | figure2 | table1 | figure3 | table2 | weights | hubstats | hacseeds | errors | seeding | hubdesign | futurework | postquery | selectk | engines | stats | scaling | ingest | scale | search")
		sizes   = flag.String("sizes", "", "corpus sizes (default 100,200,454 for -exp scaling; 5000,20000,50000 for -exp scale; 454,5000,20000 for -exp ingest)")
		jsonOut = flag.String("json", "", "output file (default BENCH_ingest.json for -exp ingest; BENCH_scale.json for -exp scale; BENCH_search.json for -exp search)")
		metrics = flag.Bool("metrics", false, "collect run telemetry and dump the metrics snapshot to stderr on exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Print(err)
			}
		}()
	}
	if *memProf != "" {
		defer writeHeapProfile(*memProf)
	}

	// Run-config banner: the effective settings a reader needs to
	// reproduce this run.
	fmt.Printf("# benchall seed=%d n=%d runs=%d k=%d workers=%d engine=compiled exp=%s\n",
		*seed, *n, *runs, len(webgen.Domains), runtime.GOMAXPROCS(0), *exp)

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		defer func() {
			fmt.Fprintln(os.Stderr, "# metrics snapshot")
			if err := reg.WritePrometheus(os.Stderr); err != nil {
				log.Print(err)
			}
		}()
	}

	if *exp == "ingest" {
		res, err := ingestSweep(parseSizes(defaultStr(*sizes, "454,5000,20000")), *seed)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeIngestJSON(res, defaultStr(*jsonOut, "BENCH_ingest.json")); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *exp == "search" {
		res, err := searchBench(*n, *seed, reg)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeSearchJSON(res, defaultStr(*jsonOut, "BENCH_search.json")); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *exp == "scale" {
		rep, err := scaleBench(parseSizes(defaultStr(*sizes, "5000,20000,50000")), *seed)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeScaleJSON(rep, defaultStr(*jsonOut, "BENCH_scale.json")); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *exp == "scaling" {
		rows, err := experiments.Scaling(parseSizes(defaultStr(*sizes, "100,200,454")), *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10s %10s %10s %10s\n", "formPages", "entropy", "F-measure", "ms")
		for _, r := range rows {
			fmt.Printf("%10d %10.3f %10.3f %10d\n", r.FormPages, r.Entropy, r.FMeasure, r.Millis)
		}
		return
	}

	env, err := experiments.NewEnvMetrics(webgen.Config{Seed: *seed, FormPages: *n}, reg)
	if err != nil {
		log.Fatal(err)
	}

	switch *exp {
	case "all":
		fmt.Print(experiments.RunAll(env, *runs))
	case "figure2":
		fmt.Print(experiments.RenderQuality(experiments.Figure2(env, *runs, experiments.DefaultMinCard)))
	case "table1":
		fmt.Print(experiments.RenderTable1(experiments.Table1(env)))
	case "figure3":
		sweep, ref := experiments.Figure3(env, *runs)
		fmt.Print(experiments.RenderFigure3(sweep, ref))
	case "table2":
		fmt.Print(experiments.RenderQuality(experiments.Table2(env, *runs, experiments.DefaultMinCard)))
	case "weights":
		fmt.Print(experiments.RenderQuality(experiments.WeightAblation(env, experiments.DefaultMinCard)))
	case "hubstats":
		fmt.Print(experiments.HubStatsExp(env))
	case "hacseeds":
		fmt.Print(experiments.RenderQuality(experiments.HACSeedsExp(env, experiments.DefaultMinCard)))
	case "errors":
		fmt.Print(experiments.ErrorAnalysis(env, experiments.DefaultMinCard))
	case "seeding":
		fmt.Print(experiments.RenderQuality(experiments.SeedingAblation(env, *runs)))
	case "postquery":
		rows, err := experiments.PostQuery(env, experiments.DefaultMinCard)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.RenderPostQuery(rows))
	case "selectk":
		best, curve := experiments.KSelection(env, 2, 12)
		fmt.Print(experiments.RenderKSelection(best, curve))
	case "futurework":
		fmt.Print(experiments.RenderQuality(experiments.FutureWork(env, experiments.DefaultMinCard)))
	case "hubdesign":
		fmt.Print(experiments.RenderQuality(experiments.HubDesignAblation(env, experiments.DefaultMinCard)))
	case "engines":
		fmt.Print(experiments.RenderEngineComparison(experiments.EngineComparison(env, 3)))
	case "stats":
		fmt.Print(dataset.ComputeStats(env.Corpus))
	default:
		log.Fatalf("unknown -exp %q", *exp)
	}
}

// writeHeapProfile writes the heap profile (live and allocated bytes by
// allocation site) to path, after a GC so the live figures are current.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Print(err)
		return
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Print(err)
	}
	if err := f.Close(); err != nil {
		log.Print(err)
	}
}

// hostInfo is the machine a BENCH report was measured on.
type hostInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func currentHost() hostInfo {
	return hostInfo{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// defaultStr returns s, or def when s is empty — per-experiment flag
// defaults.
func defaultStr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// parseSizes parses a comma-separated corpus-size list.
func parseSizes(s string) []int {
	var ns []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			log.Fatalf("bad -sizes entry %q", f)
		}
		ns = append(ns, v)
	}
	return ns
}
