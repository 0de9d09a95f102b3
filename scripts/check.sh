#!/usr/bin/env sh
# Full local verification: formatting, vet, build, race-enabled tests
# (the parallel clustering kernels run under the race detector with
# Workers > 1), a single-iteration smoke of the engine benchmarks so they
# cannot silently rot, the crawler's fetch telemetry, and end-to-end
# smokes of directoryd: metrics, a backlink outage at startup, live
# ingest, restart, load, and a leader with a follower that drains and
# restarts.
set -eu
cd "$(dirname "$0")/.."

# Formatting gate: any file gofmt would rewrite fails the run. The
# repository benchmark (perfbench) is its own module, so go list does not
# reach it; it is named explicitly.
unformatted=$(gofmt -l $(go list -f '{{.Dir}}' ./...) perfbench)
[ -z "$unformatted" ] || { echo "check.sh: gofmt needed on:"; echo "$unformatted"; exit 1; }
go vet ./...
go build ./...
go test -race ./...
# perfbench builds against the root module's API through a replace
# directive; vet and test it here so an API change that breaks it fails
# now rather than on the next benchmark run.
(cd perfbench && go vet ./... && go test ./...)
# The clustering kernels shard by GOMAXPROCS when Workers is 0, and so
# does the quality monitor's similarity-cache fill: run both at one and
# two CPUs so a hard-coded shard count fails on any host. The postings
# index builds its dense rows on the first DotOne, which parallel
# callers may reach together: run it under both too.
go test -race -cpu 1,2 ./internal/cluster
go test -race -cpu 1,2 ./internal/obs/quality
go test -race -cpu 1,2 ./internal/vector
# Focused race pass over the live-pipeline packages: the streaming
# ingester, the clustering kernels it drives (including the sharded
# bound-pruned assignment path), the incremental model
# with its parallel build, the replication layer (server, tailer and the
# chaos suite), the search index (concurrent readers over the frozen
# snapshot while the builder appends), the postings index (its dense
# rows built on first use), and the observability layer (histograms
# under concurrent Observe, the quality monitor).
go test -race ./internal/stream ./internal/repl ./internal/cluster ./internal/cafc \
    ./internal/search ./internal/vector ./internal/obs ./internal/obs/quality ./cmd/directoryd
# Ingest fan-out under the race detector, run twice: the sharded
# parse/embed pipeline at worker counts 1, 2, 3 and 8
# (TestParallelIngestBitIdenticalEpochs sweeps them internally), the
# WAL group-commit buffering, crash-recovery and close paths, WAL
# replay at construction (TestReplayPublishesOnce: one OnPublish, the
# same epoch as a record-by-record follower) and the cached drift
# rescan against the full rescan it replaces (TestDriftRescan*).
go test -race -count 2 -run 'TestParallelIngest|TestGroupCommit|TestReplayPublishesOnce|TestDriftRescan' ./internal/stream
# BenchmarkSnapshot runs here too: its v2 save leg is the size and
# save-time reference for snapshot v3, and a leg that breaks fails now.
# So does BenchmarkRecoverLive, the in-process restart the ROADMAP's
# restart profile is taken from.
go test -run xxx -bench 'BenchmarkCosine|BenchmarkKMeansEngines|BenchmarkKMeans454|BenchmarkSnapshot|BenchmarkRecoverLive' \
    -benchtime=1x ./internal/vector ./internal/cluster .
# Allocation-regression smoke: the serve-path benches run once so a
# change that reintroduces per-call allocations fails alongside the
# zero-alloc tests instead of only showing up in BENCH_scale.json.
# BenchmarkClassifyHandler is one whole /classify request.
go test -run xxx -bench 'BenchmarkClassify|BenchmarkKMeansScale' \
    -benchmem -benchtime=1x ./internal/cafc ./cmd/directoryd

# Fuzz smoke: a few seconds on each parser-facing target so the corpora
# stay exercised and a crashing seed fails CI fast.
go test -run xxx -fuzz FuzzTokenize -fuzztime 3s ./internal/htmlx
go test -run xxx -fuzz FuzzParseForms -fuzztime 3s ./internal/form
go test -run xxx -fuzz FuzzClassifyBody -fuzztime 3s ./cmd/directoryd
go test -run xxx -fuzz FuzzLoadSnapshot -fuzztime 3s .

tmp=$(mktemp -d)
# stop ends a server this script started and waits for it to exit, so
# none outlives the script or the state dir it is still writing.
stop() {
    [ -n "${1:-}" ] || return 0
    kill "$1" 2>/dev/null || true
    wait "$1" 2>/dev/null || true
}
trap 'stop "${fpid:-}"; stop "${dpid:-}"; rm -rf "$tmp"' EXIT
# start_server NAME PIDVAR ADDRVAR ARGS... starts directoryd with ARGS
# in the background, logging to $tmp/NAME.log, and waits up to 10 s for
# the banner line that carries the bound address. It sets PIDVAR (dpid
# or fpid, so the exit trap stops the server) and ADDRVAR, and fails the
# run, printing the log, if no address appears.
start_server() {
    log="$tmp/$1.log" pidvar=$2 addrvar=$3
    shift 3
    "$tmp/directoryd" "$@" >"$log" 2>&1 &
    eval "$pidvar=\$!"
    bound=""
    for _ in $(seq 1 50); do
        bound=$(sed -n 's|.*on http://\([^/]*\)/.*|\1|p' "$log" | head -1)
        [ -n "$bound" ] && break
        sleep 0.2
    done
    [ -n "$bound" ] || { echo "check.sh: directoryd did not start (log $log)"; cat "$log"; exit 1; }
    eval "$addrvar=\$bound"
}
go build -o "$tmp/webgen" ./cmd/webgen
go build -o "$tmp/crawler" ./cmd/crawler
go build -o "$tmp/directoryd" ./cmd/directoryd
go build -o "$tmp/benchall" ./cmd/benchall

# Scale-bench smoke: a 5k-page forms-only corpus through the exhaustive
# and Hamerly k-means kernels. scaleBench itself fails the run unless
# Hamerly reproduces the exhaustive assignments byte for byte with
# strictly fewer distance computations and the parallel model build is
# bit-identical to the serial reference — so this guards the pruning and
# parallel-build invariants end to end.
"$tmp/benchall" -exp scale -sizes 5000 -json "$tmp/BENCH_scale_smoke.json" >/dev/null
[ -s "$tmp/BENCH_scale_smoke.json" ] || { echo "check.sh: scale smoke wrote no report"; exit 1; }
kernels=$(sed -n 's/.*"kernel": "\([a-z]*\)".*/\1/p' "$tmp/BENCH_scale_smoke.json" | tr '\n' ' ')
[ "$kernels" = "off hamerly " ] || { echo "check.sh: scale smoke kernels '$kernels', want 'off hamerly '"; exit 1; }

# Profile smoke: a 454-page scale run writes a heap profile that go tool
# pprof reads, and reports the heap the built model retains per page.
"$tmp/benchall" -exp scale -sizes 454 -json "$tmp/BENCH_scale_454.json" -memprofile "$tmp/scale.mem" >/dev/null
go tool pprof -top "$tmp/benchall" "$tmp/scale.mem" >/dev/null || {
    echo "check.sh: go tool pprof cannot read the scale smoke's heap profile"; exit 1; }
heap=$(sed -n 's/.*"heap_bytes_per_page": \([0-9]*\).*/\1/p' "$tmp/BENCH_scale_454.json")
[ "${heap:-0}" -gt 0 ] || { echo "check.sh: scale smoke heap_bytes_per_page '$heap', want > 0"; exit 1; }

# Ingest-throughput smoke: the 454-page sweep replays the baseline
# run's WAL through fresh pipelines at worker counts 1, 2 and 4 and
# fails unless each replay's model, search index and WAL bytes are
# byte-identical to the serial reference (ingestSweep's verify stage) —
# so the parallel pipeline's determinism contract is guarded end to
# end, not just at the unit level.
"$tmp/benchall" -exp ingest -sizes 454 -json "$tmp/BENCH_ingest_smoke.json" >/dev/null
[ -s "$tmp/BENCH_ingest_smoke.json" ] || { echo "check.sh: ingest smoke wrote no report"; exit 1; }

# Search-bench smoke: the seeded search benchmark at the settings of
# the committed report (benchall's defaults). A second directory must
# answer every query with byte-identical JSON, and every field but the
# timings (qps, *_ms) must equal the committed BENCH_search.json, so
# the seeded corpus and query pool cannot drift unnoticed.
"$tmp/benchall" -exp search -json "$tmp/BENCH_search_smoke.json" >/dev/null
grep -q '"byte_identical": true' "$tmp/BENCH_search_smoke.json" || {
    echo "check.sh: search smoke answers are not byte-identical"; exit 1; }
grep -v 'qps\|_ms' BENCH_search.json >"$tmp/search_want.json"
grep -v 'qps\|_ms' "$tmp/BENCH_search_smoke.json" >"$tmp/search_got.json"
diff "$tmp/search_want.json" "$tmp/search_got.json" || {
    echo "check.sh: search smoke differs from BENCH_search.json beyond its timings"; exit 1; }
"$tmp/webgen" -n 60 -seed 7 -o "$tmp/corpus.json.gz" -stats=false

# Crawler telemetry smoke: crawl the corpus over loopback HTTP with
# -metrics and assert the exposition on stderr carries the fetch
# latency histogram.
"$tmp/crawler" -in "$tmp/corpus.json.gz" -o "$tmp/crawled.json.gz" -metrics \
    >/dev/null 2>"$tmp/crawler_metrics.txt"
grep -q '^crawler_fetch_seconds' "$tmp/crawler_metrics.txt" || {
    echo "check.sh: crawler -metrics missing crawler_fetch_seconds"; cat "$tmp/crawler_metrics.txt"; exit 1; }

# Metrics smoke: serve a small corpus with -metrics on a random port and
# assert the Prometheus exposition is populated with domain telemetry.
start_server directoryd dpid addr -in "$tmp/corpus.json.gz" -addr 127.0.0.1:0 -k 4 -metrics
curl -fsS "http://$addr/metrics" >"$tmp/metrics.txt"
[ -s "$tmp/metrics.txt" ] || { echo "check.sh: empty /metrics exposition"; exit 1; }
for m in kmeans_moved_fraction backlink_miss_total retry_total breaker_state; do
    grep -q "^$m" "$tmp/metrics.txt" || { echo "check.sh: /metrics missing $m"; exit 1; }
done
curl -fsS "http://$addr/debug/pprof/" >/dev/null
stop "$dpid"
dpid=""

# Degradation smoke: kill the backlink service mid-startup (after 10
# queries) and assert directoryd still comes up serving clusters and
# ready, with the degradation visible in /metrics and the log. The
# backlink breaker guards genesis alone, so it must not hold /healthz.
start_server directoryd2 dpid addr -in "$tmp/corpus.json.gz" -addr 127.0.0.1:0 -k 4 -metrics \
    -backlink-outage-after 10
curl -fsS "http://$addr/" >/dev/null || { echo "check.sh: directoryd root not serving after outage"; exit 1; }
curl -fsS "http://$addr/healthz" >/dev/null || { echo "check.sh: /healthz not ready after a genesis backlink outage"; exit 1; }
curl -fsS "http://$addr/metrics" >"$tmp/metrics2.txt"
grep -q '^degraded_runs_total' "$tmp/metrics2.txt" || {
    echo "check.sh: /metrics missing degraded_runs_total after backlink outage"; exit 1; }
grep -q 'clustering degraded' "$tmp/directoryd2.log" || {
    echo "check.sh: directoryd did not log degraded clustering"; exit 1; }
stop "$dpid"
dpid=""

# Live-ingest smoke: start directoryd with a durable state dir, assert
# readiness, POST a page through /ingest and watch the model epoch
# advance in /status, then check that the directory UI lists the new
# page and serves cluster pages and database selection. This smoke and
# the restart smoke pass -live, which selects nothing, as the repository
# benchmark does, so a change that stops parsing the flag fails here.
start_server directoryd3 dpid addr -live -in "$tmp/corpus.json.gz" -data "$tmp/state" \
    -addr 127.0.0.1:0 -k 4 -flush 50ms
curl -fsS "http://$addr/healthz" >/dev/null || { echo "check.sh: live /healthz not ready with a genesis corpus"; exit 1; }
epoch0=$(curl -fsS "http://$addr/status" | sed -n 's/.*"Epoch":\([0-9]*\).*/\1/p')
[ -n "$epoch0" ] || { echo "check.sh: /status returned no epoch"; exit 1; }
pages0=$(curl -fsS "http://$addr/status" | sed -n 's/.*"Pages":\([0-9]*\).*/\1/p')
[ -n "$pages0" ] || { echo "check.sh: /status returned no page count"; exit 1; }
curl -fsS -X POST "http://$addr/ingest" -H 'Content-Type: application/json' \
    -d '{"url":"http://smoke.example/","html":"<form action=\"/q\"><input type=\"text\" name=\"title\"/></form>"}' >/dev/null \
    || { echo "check.sh: POST /ingest failed"; exit 1; }
epoch1="$epoch0"
for _ in $(seq 1 50); do
    epoch1=$(curl -fsS "http://$addr/status" | sed -n 's/.*"Epoch":\([0-9]*\).*/\1/p')
    [ "$epoch1" -gt "$epoch0" ] && break
    sleep 0.2
done
[ "$epoch1" -gt "$epoch0" ] || { echo "check.sh: epoch did not advance after /ingest ($epoch0 -> $epoch1)"; cat "$tmp/directoryd3.log"; exit 1; }
# The UI swaps in just after /status advances: poll until the front
# page's cluster sizes add up to the genesis plus the ingested page.
listed=0
for _ in $(seq 1 50); do
    listed=$(curl -fsS "http://$addr/" | sed -n 's/.*(\([0-9]*\) databases).*/\1/p' | awk '{ n += $1 } END { print n + 0 }')
    [ "$listed" -eq $((pages0 + 1)) ] && break
    sleep 0.2
done
[ "$listed" -eq $((pages0 + 1)) ] || {
    echo "check.sh: live front page lists $listed databases, want $((pages0 + 1)) (genesis $pages0 + 1 ingested)"; exit 1; }
curl -fsS "http://$addr/cluster?id=0" | grep -q '<li><a href=' || {
    echo "check.sh: live /cluster?id=0 lists no member"; exit 1; }
curl -fsS "http://$addr/select?q=hotel" | grep -q 'matching sources' || {
    echo "check.sh: live /select?q=hotel found no matching sources"; exit 1; }

# Restart smoke: a restart must serve the directory it stopped at, byte
# for byte. Save the front page and cluster pages 0-3, stop the server
# (SIGTERM: drain and snapshot), restart it on the same -data and
# compare. Then post one page, crash the server with kill -9, so the
# restart replays that page from the WAL, and compare again.
save_pages() {
    mkdir -p "$1"
    curl -fsS "http://$addr/" >"$1/front.html"
    for id in 0 1 2 3; do
        curl -fsS "http://$addr/cluster?id=$id" >"$1/cluster$id.html"
    done
}
restart_live() {
    start_server "$1" dpid addr -live -in "$tmp/corpus.json.gz" -data "$tmp/state" \
        -addr 127.0.0.1:0 -k 4 -flush 50ms
    grep -q 'recovered epoch .* partition restored' "$tmp/$1.log" || {
        echo "check.sh: restart did not restore the snapshot's partition"; cat "$tmp/$1.log"; exit 1; }
}
same_pages() {
    for f in front.html cluster0.html cluster1.html cluster2.html cluster3.html; do
        cmp -s "$1/$f" "$2/$f" || { echo "check.sh: $f differs after $3"; diff "$1/$f" "$2/$f" | head; exit 1; }
    done
}
save_pages "$tmp/before_stop"
stop "$dpid"
restart_live directoryd3b
save_pages "$tmp/after_stop"
same_pages "$tmp/before_stop" "$tmp/after_stop" "a drain and restart"
curl -fsS -X POST "http://$addr/ingest" -H 'Content-Type: application/json' \
    -d '{"url":"http://smoke2.example/","html":"<form action=\"/q\"><input type=\"text\" name=\"author\"/></form>"}' >/dev/null \
    || { echo "check.sh: POST /ingest after restart failed"; exit 1; }
for _ in $(seq 1 50); do
    listed=$(curl -fsS "http://$addr/" | sed -n 's/.*(\([0-9]*\) databases).*/\1/p' | awk '{ n += $1 } END { print n + 0 }')
    [ "$listed" -eq $((pages0 + 2)) ] && break
    sleep 0.2
done
[ "$listed" -eq $((pages0 + 2)) ] || { echo "check.sh: page posted after restart not listed"; exit 1; }
save_pages "$tmp/before_crash"
kill -9 "$dpid" 2>/dev/null || true
wait "$dpid" 2>/dev/null || true
restart_live directoryd3c
save_pages "$tmp/after_crash"
same_pages "$tmp/before_crash" "$tmp/after_crash" "a kill -9 and restart"
stop "$dpid"
dpid=""

# Load smoke: a fixed burst of traffic against a live directoryd with
# metrics on. Each round posts ingests, then fires classify posts and
# browse reads in the background and waits for every one of them, so
# the reads overlap the epochs the ingests publish. Then assert the
# server counted exactly the requests sent, the Prometheus exposition
# still parses as text format 0.0.4 line by line, the SLO and quality
# series exist, and /debug/quality serves the snapshot ring.
start_server directoryd4 dpid addr -live -in "$tmp/corpus.json.gz" -addr 127.0.0.1:0 -k 4 \
    -metrics -reqlog -flush 20ms
ingested=0
classified=0
browsed=0
for round in 1 2 3 4 5 6; do
    for name in author isbn; do
        curl -fsS -o /dev/null -X POST "http://$addr/ingest" -H 'Content-Type: application/json' \
            -d '{"url":"http://load.example/'"$name$round"'","html":"<form action=\"/q\"><input type=\"text\" name=\"'"$name"'\"/></form>"}' \
            || { echo "check.sh: load smoke ingest failed"; exit 1; }
        ingested=$((ingested + 1))
    done
    reqs=""
    for name in title author isbn year price city make model; do
        curl -fsS -o /dev/null -X POST "http://$addr/classify" -H 'Content-Type: application/json' \
            -d '{"url":"http://load.example/c/'"$name"'","html":"<form action=\"/q\"><input type=\"text\" name=\"'"$name"'\"/></form>"}' &
        reqs="$reqs $!"
        classified=$((classified + 1))
    done
    curl -fsS -o /dev/null "http://$addr/" &
    reqs="$reqs $!"
    curl -fsS -o /dev/null "http://$addr/cluster?id=0" &
    reqs="$reqs $!"
    browsed=$((browsed + 1))
    failed=""
    for p in $reqs; do
        wait "$p" || failed=1
    done
    [ -z "$failed" ] || { echo "check.sh: load smoke read failed in round $round"; exit 1; }
done
# Search smoke: ranked retrieval with facet labels on the live server,
# X-Cache MISS on first sight and HIT (byte-identical body) on repeat
# within the epoch, with the search_* series visible in /metrics.
curl -fsS -D "$tmp/search_h1.txt" "http://$addr/search?q=hotel&k=10" >"$tmp/search1.json"
grep -qi '^X-Cache: MISS' "$tmp/search_h1.txt" || {
    echo "check.sh: first /search not a cache MISS"; cat "$tmp/search_h1.txt"; exit 1; }
grep -q '"url"' "$tmp/search1.json" || {
    echo "check.sh: /search returned no ranked hits"; cat "$tmp/search1.json"; exit 1; }
grep -q '"label"' "$tmp/search1.json" || {
    echo "check.sh: /search facets carry no labels"; cat "$tmp/search1.json"; exit 1; }
curl -fsS -D "$tmp/search_h2.txt" "http://$addr/search?q=hotel&k=10" >"$tmp/search2.json"
grep -qi '^X-Cache: HIT' "$tmp/search_h2.txt" || {
    echo "check.sh: repeat /search within the epoch did not hit the cache"; cat "$tmp/search_h2.txt"; exit 1; }
cmp -s "$tmp/search1.json" "$tmp/search2.json" || {
    echo "check.sh: cached /search body differs from the cold body"; exit 1; }
curl -fsS "http://$addr/metrics" >"$tmp/metrics4.txt"
# Text-format 0.0.4: every non-comment, non-blank line is
# "name[{labels}] value" with a parseable float value.
awk '
/^#/ || /^$/ { next }
{
    if ($0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?([0-9]*\.)?[0-9]+([eE][-+]?[0-9]+)?$/ &&
        $0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [+-]Inf$/ &&
        $0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? NaN$/) {
        print "check.sh: unparseable exposition line: " $0; bad = 1
    }
}
END { exit bad }' "$tmp/metrics4.txt" || exit 1
# The server counted exactly the requests the load smoke sent.
for want in "slo_requests_total{endpoint=\"classify\"} $classified" \
            "slo_requests_total{endpoint=\"ingest\"} $ingested" \
            "http_requests_total{code=\"200\",path=\"/\"} $browsed" \
            "http_requests_total{code=\"200\",path=\"/cluster\"} $browsed"; do
    grep -qxF "$want" "$tmp/metrics4.txt" || {
        echo "check.sh: /metrics lacks '$want' after the load smoke"
        grep '^slo_requests_total\|^http_requests_total' "$tmp/metrics4.txt"; exit 1; }
done
for m in slo_error_budget_burn slo_requests_total quality_silhouette stream_queue_capacity stream_queue_saturation \
         search_requests_total search_cache_hits_total search_index_docs; do
    grep -q "^$m" "$tmp/metrics4.txt" || { echo "check.sh: /metrics missing $m after load"; exit 1; }
done
curl -fsS "http://$addr/debug/quality" >"$tmp/quality.json"
grep -q '"epoch"' "$tmp/quality.json" || { echo "check.sh: /debug/quality empty or malformed"; cat "$tmp/quality.json"; exit 1; }
grep -q '"span_id"' "$tmp/directoryd4.log" || { echo "check.sh: -reqlog produced no structured request logs"; exit 1; }
stop "$dpid"
dpid=""

# Replication smoke: a cold leader (every document WAL-logged, so a
# follower's replay is the leader's exact history), a follower
# bootstrapped and tailing over HTTP, writes ingested via the leader —
# the follower must converge to the leader's epoch, answer /classify
# byte-identically, and report replication lag 0 in /metrics.
start_server leader dpid laddr -live -role leader -in "" -data "$tmp/lead" \
    -addr 127.0.0.1:0 -k 4 -seed 7 -flush 20ms -metrics
for name in title author isbn; do
    curl -fsS -X POST "http://$laddr/ingest" -H 'Content-Type: application/json' \
        -d '{"url":"http://repl.example/'"$name"'","html":"<form action=\"/q\"><input type=\"text\" name=\"'"$name"'\"/></form>"}' >/dev/null \
        || { echo "check.sh: leader ingest failed"; exit 1; }
done
lepoch=""
for _ in $(seq 1 50); do
    lepoch=$(curl -fsS "http://$laddr/status" | sed -n 's/.*"Epoch":\([0-9]*\).*/\1/p')
    [ -n "$lepoch" ] && [ "$lepoch" -ge 1 ] && break
    sleep 0.2
done
[ -n "$lepoch" ] && [ "$lepoch" -ge 1 ] || { echo "check.sh: leader published no epoch"; cat "$tmp/leader.log"; exit 1; }

start_server follower fpid faddr -role follower -leader "http://$laddr" -data "$tmp/foll" \
    -addr 127.0.0.1:0 -k 4 -seed 7 -repl-poll 50ms -metrics

# The leader keeps writing while the follower tails — replication must
# close the gap, not just replay the bootstrap prefix.
lepoch0="$lepoch"
curl -fsS -X POST "http://$laddr/ingest" -H 'Content-Type: application/json' \
    -d '{"url":"http://repl.example/late","html":"<form action=\"/q\"><input type=\"text\" name=\"year\"/></form>"}' >/dev/null \
    || { echo "check.sh: post-bootstrap leader ingest failed"; exit 1; }
# Wait for the late batch to flush on the leader before checking
# convergence — otherwise the loop below can observe the pre-flush
# epoch on both sides and pass while the gap is still open.
for _ in $(seq 1 50); do
    lepoch=$(curl -fsS "http://$laddr/status" | sed -n 's/.*"Epoch":\([0-9]*\).*/\1/p')
    [ -n "$lepoch" ] && [ "$lepoch" -gt "$lepoch0" ] && break
    sleep 0.2
done
[ -n "$lepoch" ] && [ "$lepoch" -gt "$lepoch0" ] || {
    echo "check.sh: leader never flushed the post-bootstrap ingest (epoch stuck at ${lepoch0:-?})"
    cat "$tmp/leader.log"; exit 1; }
converged=""
for _ in $(seq 1 100); do
    lepoch=$(curl -fsS "http://$laddr/status" | sed -n 's/.*"Epoch":\([0-9]*\).*/\1/p')
    fepoch=$(curl -fsS "http://$faddr/status" | sed -n 's/.*"Epoch":\([0-9]*\).*/\1/p')
    if [ -n "$lepoch" ] && [ -n "$fepoch" ] && [ "$fepoch" -eq "$lepoch" ] && [ "$fepoch" -ge 2 ]; then
        converged=1
        break
    fi
    sleep 0.2
done
[ -n "$converged" ] || {
    echo "check.sh: follower never converged (leader epoch ${lepoch:-?}, follower ${fepoch:-?})"
    cat "$tmp/follower.log"; exit 1; }

classify_doc='{"url":"http://repl.example/probe","html":"<form action=\"/q\"><input type=\"text\" name=\"title\"/></form>"}'
curl -fsS -X POST "http://$laddr/classify" -H 'Content-Type: application/json' -d "$classify_doc" >"$tmp/classify_leader.json"
curl -fsS -X POST "http://$faddr/classify" -H 'Content-Type: application/json' -d "$classify_doc" >"$tmp/classify_follower.json"
cmp -s "$tmp/classify_leader.json" "$tmp/classify_follower.json" || {
    echo "check.sh: follower /classify diverged from leader"
    cat "$tmp/classify_leader.json" "$tmp/classify_follower.json"; exit 1; }
# The front pages must match as well, once both UIs have swapped to the
# converged epoch (each swaps in just after its /status advances).
same=""
for _ in $(seq 1 50); do
    curl -fsS "http://$laddr/" >"$tmp/front_leader.html"
    curl -fsS "http://$faddr/" >"$tmp/front_follower.html"
    cmp -s "$tmp/front_leader.html" "$tmp/front_follower.html" && { same=1; break; }
    sleep 0.2
done
[ -n "$same" ] || {
    echo "check.sh: follower front page diverged from leader"
    cat "$tmp/front_leader.html" "$tmp/front_follower.html"; exit 1; }
curl -fsS "http://$faddr/healthz" >/dev/null || { echo "check.sh: follower /healthz not ok at lag 0"; exit 1; }
curl -fsS "http://$faddr/metrics" >"$tmp/metrics5.txt"
grep -q '^replication_lag_epochs 0$' "$tmp/metrics5.txt" || {
    echo "check.sh: follower replication lag did not drain to 0"
    grep '^replication' "$tmp/metrics5.txt"; exit 1; }
grep -q '^replication_applied_epoch' "$tmp/metrics5.txt" || {
    echo "check.sh: follower /metrics missing replication_applied_epoch"; exit 1; }
# A drained follower restarts with the same flags from its own snapshot,
# restoring the partition it served rather than re-clustering, and
# answers as the leader does. The leader's first batch held at most
# three pages, fewer than -k, so that partition's K can be below -k.
stop "$fpid"
start_server follower2 fpid faddr -role follower -leader "http://$laddr" -data "$tmp/foll" \
    -addr 127.0.0.1:0 -k 4 -seed 7 -repl-poll 50ms
grep -q 'partition restored' "$tmp/follower2.log" || {
    echo "check.sh: restarted follower did not restore its snapshot's partition"; cat "$tmp/follower2.log"; exit 1; }
curl -fsS -X POST "http://$faddr/classify" -H 'Content-Type: application/json' -d "$classify_doc" >"$tmp/classify_restarted.json"
cmp -s "$tmp/classify_leader.json" "$tmp/classify_restarted.json" || {
    echo "check.sh: restarted follower /classify diverged from leader"
    cat "$tmp/classify_leader.json" "$tmp/classify_restarted.json"; exit 1; }
stop "$fpid"
fpid=""
stop "$dpid"
dpid=""

echo "check.sh: all green"
