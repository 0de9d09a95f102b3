package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"cafc/internal/cafc"
	"cafc/internal/cluster"
)

// EngineRow is one similarity-engine configuration timed on the same
// CAFC-CH workload: the compiled (term-interned packed vector) engine
// serial, and with the parallel kernels enabled.
type EngineRow struct {
	Engine   string
	Workers  int
	Millis   float64
	Entropy  float64
	FMeasure float64
}

// EngineComparison runs the CAFC-CH k-means refinement (identical hub
// seeds, identical randomness) under each engine configuration and
// times it. Quality must be worker-invariant — the parallel kernels are
// bit-identical to serial — so Entropy/FMeasure double as a
// correctness check, while Millis shows the win. Each configuration
// is run `reps` times (min 1) and the fastest run reported, the usual
// guard against scheduler noise.
func EngineComparison(env *Env, reps int) []EngineRow {
	if reps < 1 {
		reps = 1
	}
	seeds := cafc.SelectHubClusters(env.Model, env.HubClusters, env.K, DefaultMinCard)
	cfgs := []struct {
		name    string
		workers int
	}{
		{"compiled", 1},
		{"compiled+parallel", 0},
	}
	var rows []EngineRow
	for _, c := range cfgs {
		workers := c.workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		var best time.Duration
		var res cluster.Result
		for r := 0; r < reps; r++ {
			start := time.Now()
			res = cluster.KMeans(env.Model, env.K, seeds, cluster.Options{
				Rand:    rand.New(rand.NewSource(1)),
				Workers: c.workers,
			})
			if el := time.Since(start); r == 0 || el < best {
				best = el
			}
		}
		e, f := env.quality(res)
		rows = append(rows, EngineRow{
			Engine:   c.name,
			Workers:  workers,
			Millis:   float64(best.Microseconds()) / 1000,
			Entropy:  e,
			FMeasure: f,
		})
	}
	return rows
}

// RenderEngineComparison prints the engine rows with the speedup of
// each configuration over the first (serial) row.
func RenderEngineComparison(rows []EngineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %10s %10s %10s %9s\n",
		"engine", "workers", "ms", "entropy", "F-measure", "speedup")
	for _, r := range rows {
		speedup := "1.0x"
		if len(rows) > 0 && r.Millis > 0 {
			speedup = fmt.Sprintf("%.1fx", rows[0].Millis/r.Millis)
		}
		fmt.Fprintf(&b, "%-20s %8d %10.1f %10.3f %10.3f %9s\n",
			r.Engine, r.Workers, r.Millis, r.Entropy, r.FMeasure, speedup)
	}
	return b.String()
}
