// Command perfbench is the repository benchmark. It drives the real
// directoryd binary, built from the tree under test, in live mode over
// loopback and reports what a client of the directory sees, end to end;
// with -trace 1 it reports per-layer costs instead.
//
// Usage (run.sh builds both binaries and passes -directoryd and -work):
//
//	perfbench -workload serve|mixed -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// # Workloads
//
// serve is read-only and closed loop over two connections, on a
// 2000-page genesis (4.4x the paper's 454) generated with hubs, so the
// genesis runs CAFC-CH with backlinks. Its read mix is 55% classify of
// held-out form pages (new databases, the paper's Section 5), 30%
// Zipf-drawn title-derived search (a pool larger than the 1024-entry
// per-epoch result cache) and 15% browse of / and /cluster?id=. It
// exists to load parse, classifier scoring, the search cache and
// ranking, HTTP/JSON, large-corpus set-up and snapshot restore (five
// SIGTERM restarts), with the ingest pipeline idle. A traced serve run
// then posts 20 pages one at a time, so its per-epoch replay has records
// at 2000 pages, where the UI rebuild is costliest.
//
// mixed is open loop on the paper's 454-page genesis: one connection
// sends the serve read mix at 300 reads/s, the other POSTs single pages
// to /ingest one at a time, each once the front page counts the one
// before (4 pages per -seconds second, 100 at 25 s). It exists to run
// the whole per-epoch path (WAL, model clone and append, drift rescan,
// search freeze, quality monitor, UI rebuild) beside live reads, where
// the search cache rarely outlives an epoch; it ends with kill -9 so
// recovery replays the run's WAL. Posting one page at a time, rather
// than at a fixed rate, keeps the ingest worker below saturation: every
// WAL record holds one page, so a run's epoch count is its page count
// and server_cpu_s and recover_s grow with the cost of each epoch. At a
// fixed 10 pages/s the worker runs back to back, the epoch count adapts
// to the cost of each epoch, and both figures track the schedule's
// length instead. An epoch at 454-559 pages takes 100-200 ms on a
// two-vCPU host, depending on its other tenants, and the worker flushes
// on a 200 ms ticker, so a page becomes visible one or two ticks after
// its 202 and the ingest lane takes 20-42 s, beside the 25-s read
// schedule; the measured phase ends when both lanes are done.
//
// There is no bulk-import workload: under a backlog directoryd's batch
// boundaries depend on a random select between its ticker and its
// queue, so bulk figures would measure the epoch count drawn.
//
// # Metrics
//
// Each run measures fixed work sized from -seconds: serve a fixed op
// count, mixed a fixed read schedule and a fixed number of one-page
// epochs. Latencies are nearest-rank p50/p99 over successful ops; every
// p99 has at least 1000 samples and visible_p90_ms at least 100.
// Open-loop ops are timed from their due time, less the generator's own
// send delay. Warm-up answers are checked and counted but not timed.
// Each run prints the end-to-end metrics of its workload (read_ops_per_s
// on serve, visible_* on mixed, the other 13 on both); the JSON result
// carries the five that repeat within their bounds on a noisy two-vCPU
// host (see bounded). The per-layer metrics and the layer that owns each
// are listed in trace.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload fixes everything a run does besides its seed and length.
type workload struct {
	genesis      int            // genesis form pages
	closed       bool           // closed loop over two lanes (else open loop)
	opsPerSec    int            // closed loop: reads per -seconds second in the fixed op count
	warmOps      int            // closed loop: warm-up reads
	readRate     float64        // open loop: reads/s
	ingestPerSec int            // open loop: docs per -seconds second in the fixed doc count
	warmSec      int            // open loop: warm-up seconds of reads
	warmDocs     int            // open loop: warm-up docs
	setups       int            // set-ups per run (odd); setup_s is their median
	restart      syscall.Signal // SIGTERM (snapshot restore) or SIGKILL (WAL replay)
	restarts     int            // recoveries per run (odd); recover_s is their median
	probeDocs    int            // traced closed-loop runs: docs posted one at a time after recovery
}

var workloads = map[string]workload{
	"serve": {genesis: 2000, closed: true, opsPerSec: 2400, warmOps: 2000,
		setups: 5, restart: syscall.SIGTERM, restarts: 5, probeDocs: 20},
	"mixed": {genesis: 454, readRate: 300, ingestPerSec: 4, warmSec: 2, warmDocs: 5,
		setups: 5, restart: syscall.SIGKILL, restarts: 1},
}

const (
	k           = 8
	classifyN   = 500
	queryPool   = 1536
	minVisibleN = 100
	// maxOwnLateMs voids an open-loop measured phase in which the load
	// generator itself fell behind: the 99th percentile of its own send
	// delays (2-3 ms on a quiet two-core host, 5-11 ms while the
	// machine's other tenants take 15-30% of its CPU) must stay below
	// this. A void phase is redone once on a fresh genesis; a second
	// void phase voids the run.
	maxOwnLateMs = 20.0
	maxAttempts  = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one run's settings and scratch space.
type env struct {
	name    string
	w       workload
	seed    int64
	seconds int
	bin     string
	dir     string // this run's work directory
	log     *os.File
	checks  []string // failed output checks
}

func (e *env) check(ok bool, format string, args ...any) {
	if !ok {
		e.checks = append(e.checks, fmt.Sprintf(format, args...))
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "serve | mixed")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 25, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin     = flag.String("directoryd", "", "directoryd binary built from the tree under test")
		work    = flag.String("work", ".bench_build/work", "scratch and results directory")
	)
	flag.Parse()
	// The load process shares two cores with directoryd; collecting its
	// garbage rarely keeps its own pauses out of the timings.
	debug.SetGCPercent(800)
	w, ok := workloads[*name]
	if !ok || *bin == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload serve|mixed -seed N -seconds S -trace 0|1 -directoryd BIN")
		os.Exit(2)
	}
	e := &env{name: *name, w: w, seed: *seed, seconds: *seconds, bin: *bin}
	e.dir = filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	if err := run(e, *trace == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(e *env, traced bool, work string) error {
	os.RemoveAll(e.dir)
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	logf, err := os.Create(filepath.Join(e.dir, "directoryd.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	e.log = logf

	in, err := generate(e.genConfig())
	if err != nil {
		return err
	}
	genesisPath := filepath.Join(e.dir, "genesis.json.gz")
	if err := in.genesis.Save(genesisPath); err != nil {
		return err
	}
	host := hostBlock(e, traced)
	hb, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", hb)

	var res result
	if traced {
		res, err = runTraced(e, in, genesisPath, work)
	} else {
		var pr *plainRun
		pr, err = runPlain(e, in, genesisPath, false)
		if err == nil {
			res = pr.result(e)
			err = saveJSON(filepath.Join(work, "results", fmt.Sprintf("plain-%s-seed%d.json", e.name, e.seed)),
				map[string]any{"host": host, "result": res, "checks": e.checks,
					"setups_s": pr.setups, "recovers_s": pr.recovers, "host_steal": pr.steal})
		}
	}
	if err != nil {
		return err
	}
	os.RemoveAll(filepath.Join(e.dir, "data"))
	printResult(e, res, traced)
	return nil
}

// genConfig sizes the inputs: serve's op count is fixed from -seconds,
// mixed's schedule covers warm-up plus -seconds.
func (e *env) genConfig() genConfig {
	w := e.w
	cfg := genConfig{seed: e.seed, genesis: w.genesis, classify: classifyN, queries: queryPool, k: k}
	if w.closed {
		cfg.reads = roundBlock(w.warmOps + w.opsPerSec*e.seconds)
		cfg.ingest = w.probeDocs
	} else {
		cfg.reads = roundBlock(int(w.readRate) * (w.warmSec + e.seconds))
		cfg.ingest = w.warmDocs + w.ingestPerSec*e.seconds
	}
	return cfg
}

func roundBlock(n int) int { return (n + mixBlockLen - 1) / mixBlockLen * mixBlockLen }

// start execs directoryd and also reports the host steal share while
// it started, a diagnostic saved with the run.
func (e *env) start(genesisPath, data string, traced bool) (*server, float64, float64, error) {
	h := hostCPU()
	s, t, err := startServer(e.bin, e.serverArgs(genesisPath, data, traced), e.log)
	return s, t, stealSince(h), err
}

func (e *env) serverArgs(genesisPath, data string, metrics bool) []string {
	args := []string{"-live", "-in", genesisPath, "-data", data, "-addr", "127.0.0.1:0",
		"-k", fmt.Sprint(k), "-seed", fmt.Sprint(e.seed)}
	if metrics {
		args = append(args, "-metrics")
	}
	return args
}

func hostBlock(e *env, traced bool) map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"cores":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go":               runtime.Version(),
		"kernel":           strings.TrimSpace(string(kernel)),
		"directoryd_flags": strings.Join(e.serverArgs("GENESIS", "DATA", traced), " "),
		"workload":         e.name,
		"seed":             e.seed,
		"seconds":          e.seconds,
	}
}

func saveJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// bounded are the end-to-end metrics of the JSON result, the ones
// BENCHMARK.json bounds. The others are printed and saved with every
// run, beside the host steal of its measured phase. On a two-vCPU VM
// whose other tenants take 0-30% of the CPU during a measured phase,
// read latencies, throughput and time-to-visible move by 25-200%
// between runs of one seed, and the served F-measure is a property of
// each seed's web (0.63-0.93 at 454 pages); process CPU, memory, disk,
// set-up and recovery repeat within their bounds.
var bounded = map[string]bool{
	"setup_s": true, "recover_s": true, "server_cpu_s": true, "rss_peak_mb": true, "disk_amplification": true,
}

// printResult prints every metric by name and unit, then the JSON
// result: all per-layer metrics of a traced run, the bounded
// end-to-end metrics of a plain one.
func printResult(e *env, res result, traced bool) {
	out := map[string]metric{}
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		note := ""
		if traced || bounded[n] {
			out[n] = m
		} else {
			note = " (not bounded)"
		}
		fmt.Printf("%-36s %14.6g %s%s\n", n, m.Value, m.Unit, note)
	}
	fmt.Printf("workload %s: attempted %d failed %d\n", e.name, res.Attempted, res.Failed)
	for _, c := range e.checks {
		fmt.Printf("check failed: %s\n", c)
	}
	res.Metrics = out
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
}

// plainRun is what one pass over a workload measured.
type plainRun struct {
	setups, recovers []float64
	cpu              float64
	reads            *tally
	readOpsPerSec    float64
	visible          []float64
	statusVisible    []float64
	uiLag            []float64
	writes           tally
	counts           tally // warm-up ops and void measured phases: checked and counted, not timed
	accepted         int   // ingested docs accepted before the recoveries
	rssMiB           float64
	diskAmp          float64
	fMeasure         float64
	partitionMatch   bool
	data             string // the -data dir, left after a final kill -9
	// Host steal shares of each set-up, the measured phase and each
	// recovery: a diagnostic saved with the run, never a filter.
	steal struct{ Setups, Measured, Recovers []float64 }

	// Traced runs only: scrapes around the measured phase.
	before, after, afterSetup scrape
}

// runPlain runs one workload against directoryd (with -metrics when
// traced) and performs every output check.
func runPlain(e *env, in *inputs, genesisPath string, traced bool) (*plainRun, error) {
	w := e.w
	pr := &plainRun{data: filepath.Join(e.dir, "data")}
	setups := w.setups
	restarts := w.restarts
	if traced {
		setups, restarts = 1, 1
	}

	// Set-up: exec → /healthz 200 on a fresh -data dir, a fixed odd
	// number of times; setup_s is the median of all of them.
	var s *server
	for i := 0; i < setups; i++ {
		if s != nil {
			s.kill()
		}
		os.RemoveAll(pr.data)
		next, t, steal, err := e.start(genesisPath, pr.data, traced)
		if err != nil {
			return nil, err
		}
		s = next
		pr.setups = append(pr.setups, t)
		pr.steal.Setups = append(pr.steal.Setups, steal)
	}
	defer func() {
		select {
		case <-s.exited:
		default:
			s.kill()
		}
	}()
	if traced {
		pr.afterSetup = scrapeAll(s.base)
	}

	base := len(in.genesisURLs)
	var err error
	for attempt := 1; ; attempt++ {
		void := ""
		if w.closed {
			err = e.measureClosed(s, in, pr, traced)
		} else {
			void, err = e.measureOpen(s, in, pr, traced)
		}
		if err != nil {
			return nil, err
		}
		fmt.Printf("measured phase %d: host steal %.1f%%\n", attempt, pr.steal.Measured[attempt-1]*100)
		if void == "" {
			break
		}
		if attempt == maxAttempts {
			e.check(false, "%s in all %d attempts (run void)", void, attempt)
			break
		}
		fmt.Printf("measured phase redone on a fresh genesis: %s\n", void)
		pr.counts.mergeCounts(pr.reads)
		pr.counts.mergeCounts(&pr.writes)
		s.kill()
		os.RemoveAll(pr.data)
		next, _, _, err := e.start(genesisPath, pr.data, traced)
		if err != nil {
			return nil, err
		}
		s = next
		if traced {
			pr.afterSetup = scrapeAll(s.base)
		}
	}

	// After the measured phase: memory, disk, the served partition.
	if pr.rssMiB, err = s.peakRSSMiB(); err != nil {
		return nil, err
	}
	c := newClient()
	before, err := listing(c, s.base)
	if err != nil {
		return nil, err
	}
	pages := 0
	for _, m := range before {
		pages += len(m)
	}
	pr.fMeasure = fMeasure(before, in.labels)
	e.check(pages == base+pr.accepted, "front page counts %d pages, want genesis %d + accepted %d", pages, base, pr.accepted)
	st, err := status(c, s.base)
	if err != nil {
		return nil, err
	}
	e.check(st.Pages == pages, "/status counts %d pages, front page %d", st.Pages, pages)
	fmt.Printf("served: epoch %d, %d pages, %d drift re-clusters\n", st.Epoch, st.Pages, st.Rebuilds)
	disk, err := dirBytes(pr.data)
	if err != nil {
		return nil, err
	}
	admitted := 0
	for _, u := range in.genesisURLs {
		admitted += in.htmlBytes[u]
	}
	for _, u := range in.ingestURLs[:pr.accepted] {
		admitted += in.htmlBytes[u]
	}
	pr.diskAmp = float64(disk) / float64(admitted)

	// Recovery: stop (SIGTERM: drain + snapshot; SIGKILL: crash) and
	// restart on the same -data dir, back to the pre-stop epoch, a fixed
	// odd number of times; recover_s is the median of all of them.
	// Either way the next restart redoes the same work: a drained server
	// left the same snapshot, a crashed one replays the same WAL tail.
	for i := 0; i < restarts; i++ {
		if err := s.stop(w.restart); err != nil {
			return nil, err
		}
		next, t, steal, err := e.start(genesisPath, pr.data, traced)
		if err != nil {
			return nil, err
		}
		s = next
		pr.recovers = append(pr.recovers, t)
		pr.steal.Recovers = append(pr.steal.Recovers, steal)
		rst, err := status(c, s.base)
		if err != nil {
			return nil, err
		}
		e.check(rst.Epoch == st.Epoch && rst.Pages == st.Pages,
			"recovered at epoch %d with %d pages, stopped at epoch %d with %d", rst.Epoch, rst.Pages, st.Epoch, st.Pages)
		if i == 0 {
			after, err := listing(c, s.base)
			if err != nil {
				return nil, err
			}
			pr.partitionMatch = samePartition(before, after)
		}
	}

	if traced && w.probeDocs > 0 {
		// serve's per-epoch sample for the traced replay, after every
		// end-to-end figure is taken: one-page epochs at 2000 pages.
		res := ingestLane(c, s.base, in.ingestBodies[:w.probeDocs], base+pr.accepted, true)
		pr.statusVisible, pr.uiLag = res.statusMs, res.uiLagMs
		pr.writes.merge(&res.tally)
		_, body, err := get(c, s.base+"/")
		if err != nil {
			return nil, err
		}
		got := sum(frontCounts(body))
		e.check(got == base+pr.accepted+res.accepted, "after the probe the front page counts %d pages, want %d", got, base+pr.accepted+res.accepted)
	}
	c.CloseIdleConnections()
	s.kill() // no final snapshot: the traced replay reads the WAL tail
	return pr, nil
}

func (e *env) measureClosed(s *server, in *inputs, pr *plainRun, traced bool) error {
	readers := []*reader{
		{c: newClient(), base: s.base, in: in, k: k},
		{c: newClient(), base: s.base, in: in, k: k},
	}
	defer func() {
		for _, r := range readers {
			r.c.CloseIdleConnections()
		}
	}()
	warm := e.warmReads()
	warmed, _ := closedLoop(readers, in.reads[:warm])
	pr.counts.mergeCounts(warmed)
	prof := e.startProfile(s, pr, traced)
	steal0 := hostCPU()
	cpu0, err := s.cpuSeconds()
	if err != nil {
		return err
	}
	reads, elapsed := closedLoop(readers, in.reads[warm:])
	cpu1, err := s.cpuSeconds()
	if err != nil {
		return err
	}
	pr.steal.Measured = append(pr.steal.Measured, stealSince(steal0))
	if err := e.endProfile(s, pr, prof); err != nil {
		return err
	}
	pr.cpu = cpu1 - cpu0
	pr.reads = reads
	pr.readOpsPerSec = float64(reads.attempted-reads.failed) / elapsed
	return nil
}

// measureOpen runs the open-loop warm-up and measured phase on a fresh
// genesis. A non-empty void says the load generator fell behind, so the
// phase did not offer its schedule.
func (e *env) measureOpen(s *server, in *inputs, pr *plainRun, traced bool) (void string, err error) {
	w := e.w
	rd := &reader{c: newClient(), base: s.base, in: in, k: k}
	wc := newClient()
	defer rd.c.CloseIdleConnections()
	defer wc.CloseIdleConnections()
	warmReads := e.warmReads()
	base := len(in.genesisURLs)

	// Warm-up: the same two lanes on the first reads and docs.
	wr, ww := e.openPhase(rd, wc, in.reads[:warmReads], in.ingestBodies[:w.warmDocs], base, traced)
	pr.counts.mergeCounts(&wr.tally)
	pr.counts.mergeCounts(&ww.tally)

	prof := e.startProfile(s, pr, traced)
	steal0 := hostCPU()
	cpu0, err := s.cpuSeconds()
	if err != nil {
		return "", err
	}
	reads, writes := e.openPhase(rd, wc, in.reads[warmReads:], in.ingestBodies[w.warmDocs:], base+ww.accepted, traced)
	cpu1, err := s.cpuSeconds()
	if err != nil {
		return "", err
	}
	pr.steal.Measured = append(pr.steal.Measured, stealSince(steal0))
	if err := e.endProfile(s, pr, prof); err != nil {
		return "", err
	}
	pr.cpu = cpu1 - cpu0
	pr.reads = &reads.tally
	pr.writes = writes.tally
	pr.accepted = ww.accepted + writes.accepted
	pr.visible, pr.statusVisible, pr.uiLag = writes.visibleMs, writes.statusMs, writes.uiLagMs
	own := reads.ownLateMs
	fmt.Printf("load generator: own send delay p50 %.3f p99 %.3f max %.3f ms\n",
		percentile(own, 50), percentile(own, 99), percentile(own, 100))
	if late := percentile(own, 99); late > maxOwnLateMs {
		return fmt.Sprintf("load generator fell behind: p99 of its own send delay %.2f ms > %.1f ms", late, maxOwnLateMs), nil
	}
	return "", nil
}

// openPhase runs the open-loop read lane and the one-at-a-time ingest
// lane side by side from the same start and returns once both are done.
func (e *env) openPhase(rd *reader, wc *http.Client, reads []op, docs [][]byte, base int, traced bool) (*openResult, *writeResult) {
	t0 := time.Now().Add(20 * time.Millisecond)
	readc := make(chan *openResult, 1)
	go func() { readc <- openLoopReads(rd, reads, e.w.readRate, t0) }()
	time.Sleep(time.Until(t0))
	writes := ingestLane(wc, rd.base, docs, base, traced)
	return <-readc, writes
}

// startProfile (traced runs) scrapes the counters at the start of the
// measured phase and starts a CPU profile over its first half, so the
// profile ends before the run stops the server.
func (e *env) startProfile(s *server, pr *plainRun, traced bool) chan error {
	if !traced {
		return nil
	}
	pr.before = scrapeAll(s.base)
	done := make(chan error, 1)
	go profile(s.base, e.seconds/2, filepath.Join(e.dir, "cpu.pprof"), done)
	return done
}

// endProfile waits for the profile and scrapes the counters again.
func (e *env) endProfile(s *server, pr *plainRun, done chan error) error {
	if done == nil {
		return nil
	}
	pr.after = scrapeAll(s.base)
	return <-done
}

// warmReads is the number of warm-up reads before the measured phase.
func (e *env) warmReads() int {
	if e.w.closed {
		return e.w.warmOps
	}
	return int(e.w.readRate) * e.w.warmSec
}

// result turns a plain run into the end-to-end metrics of its workload.
func (pr *plainRun) result(e *env) result {
	m := map[string]metric{
		"setup_s":            {median(pr.setups), "s"},
		"recover_s":          {median(pr.recovers), "s"},
		"server_cpu_s":       {pr.cpu, "s"},
		"rss_peak_mb":        {pr.rssMiB, "MiB"},
		"disk_amplification": {pr.diskAmp, "ratio"},
		"f_measure":          {pr.fMeasure, "ratio"},
	}
	for kind, name := range opNames {
		lat := pr.reads.lat[kind]
		e.check(len(lat) >= minSamplesP99, "%s: %d samples, a p99 needs %d", name, len(lat), minSamplesP99)
		m[name+"_p50_ms"] = metric{percentile(lat, 50), "ms"}
		m[name+"_p99_ms"] = metric{percentile(lat, 99), "ms"}
	}
	if e.w.closed {
		m["read_ops_per_s"] = metric{pr.readOpsPerSec, "1/s"}
	} else {
		e.check(len(pr.visible) >= minVisibleN, "visible: %d docs, a p90 needs %d", len(pr.visible), minVisibleN)
		m["visible_p50_ms"] = metric{percentile(pr.visible, 50), "ms"}
		m["visible_p90_ms"] = metric{percentile(pr.visible, 90), "ms"}
	}

	attempted := pr.reads.attempted + pr.writes.attempted + pr.counts.attempted
	failed := pr.reads.failed + pr.writes.failed + pr.counts.failed
	for _, t := range []*tally{pr.reads, &pr.writes, &pr.counts} {
		if t.firstErr != "" {
			e.check(false, "first failed op: %s", t.firstErr)
		}
	}
	return result{Correct: failed == 0 && len(e.checks) == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// hostCPU reads the machine-wide CPU tick counters from /proc/stat:
// [steal, total].
func hostCPU() [2]float64 {
	b, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var out [2]float64
	if len(f) < 9 {
		return out // no /proc/stat: steal reads as zero
	}
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		if i < 8 {
			out[1] += v
		}
		if i == 7 {
			out[0] = v
		}
	}
	return out
}

// stealSince is the share of CPU time the hypervisor stole since a.
func stealSince(a [2]float64) float64 {
	b := hostCPU()
	if b[1] == a[1] {
		return 0
	}
	return (b[0] - a[0]) / (b[1] - a[1])
}
