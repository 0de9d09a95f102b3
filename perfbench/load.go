package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// tally collects one load lane's outcomes: per-kind latencies in ms of
// successful ops, and attempted/failed counts. Failures (errors, wrong
// status including 429, failed output checks) count against attempted
// and contribute no latency sample.
type tally struct {
	lat       [numOpKinds][]float64
	attempted int64
	failed    int64
	firstErr  string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func (t *tally) merge(o *tally) {
	for k := range t.lat {
		t.lat[k] = append(t.lat[k], o.lat[k]...)
	}
	t.mergeCounts(o)
}

// mergeCounts adds o's attempted and failed ops but not its latencies:
// warm-up answers are checked and counted, never timed.
func (t *tally) mergeCounts(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// reader sends read ops over one connection and checks every answer.
type reader struct {
	c    *http.Client
	base string
	in   *inputs
	k    int
}

// do sends o and reports whether the answer passed its check.
func (r *reader) do(o op) error {
	switch o.kind {
	case opClassify:
		code, body, err := post(r.c, r.base+"/classify", r.in.classifyBodies[o.arg])
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("classify: %d %v", code, err)
		}
		var res struct {
			Cluster *int `json:"cluster"`
		}
		if err := json.Unmarshal(body, &res); err != nil || res.Cluster == nil || *res.Cluster < 0 || *res.Cluster >= r.k {
			return fmt.Errorf("classify: cluster outside [0,%d): %.80s", r.k, body)
		}
	case opSearch:
		code, body, err := get(r.c, r.base+r.in.searchPaths[o.arg])
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("search: %d %v", code, err)
		}
		var res struct {
			Hits []struct{} `json:"hits"`
		}
		if err := json.Unmarshal(body, &res); err != nil || len(res.Hits) == 0 {
			return fmt.Errorf("search %q: no hits", r.in.queries[o.arg])
		}
	case opBrowse:
		code, body, err := get(r.c, r.base+r.in.browsePaths[o.arg])
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("browse %s: %d %v", r.in.browsePaths[o.arg], code, err)
		}
		if o.arg == 0 && len(frontCounts(body)) != r.k {
			return fmt.Errorf("browse /: %d clusters listed, want %d", len(frontCounts(body)), r.k)
		}
	}
	return nil
}

// closedLoop runs ops over one lane per client: each lane sends its next
// op as soon as the previous one answered. Latency is send to answer.
func closedLoop(readers []*reader, ops []op) (*tally, float64) {
	var next atomic.Int64
	tallies := make([]tally, len(readers))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, r := range readers {
		wg.Add(1)
		go func(r *reader, t *tally) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				o := ops[i]
				t.attempted++
				start := time.Now()
				if err := r.do(o); err != nil {
					t.fail("%v", err)
					continue
				}
				t.lat[o.kind] = append(t.lat[o.kind], ms(time.Since(start)))
			}
		}(r, &tallies[i])
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	var all tally
	for i := range tallies {
		all.merge(&tallies[i])
	}
	return &all, elapsed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openResult is one open-loop lane's outcome.
type openResult struct {
	tally
	// ownLateMs are the generator's own delays: send time minus the
	// later of the op's due time and the previous answer on the lane —
	// the part of a late send the server did not cause.
	ownLateMs []float64
}

// openLoopReads sends ops[i] at t0 + i/rate over one connection. Latency
// runs from the due time, so a stall also charges the ops queued behind
// it; only the generator's own send delay (timer wake-up, its own
// scheduling) is taken out, and recorded apart as its lateness.
func openLoopReads(r *reader, ops []op, rate float64, t0 time.Time) *openResult {
	res := &openResult{}
	prevDone := t0
	for i, o := range ops {
		due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		send := time.Now()
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		err := r.do(o)
		done := time.Now()
		prevDone = done
		res.attempted++
		own := send.Sub(ready)
		res.ownLateMs = append(res.ownLateMs, ms(own))
		if err != nil {
			res.fail("%v", err)
			continue
		}
		res.lat[o.kind] = append(res.lat[o.kind], ms(done.Sub(due)-own))
	}
	return res
}

// writeResult is the ingest lane's outcome.
type writeResult struct {
	tally
	accepted  int
	visibleMs []float64 // 202 → front page counts the doc
	statusMs  []float64 // 202 → /status Pages counts the doc (withStatus only)
	uiLagMs   []float64 // UI-visible minus status-visible (withStatus only)
}

// pollEvery paces visibility polls.
const pollEvery = 10 * time.Millisecond

// ingestLane POSTs bodies to /ingest one at a time over one connection:
// each doc is posted once the front page (and with withStatus also
// /status) counts the previous one, polled every pollEvery. The ingest
// worker is then idle whenever a doc arrives, so every WAL record holds
// exactly one doc and a run's epoch count is the number of docs, however
// long each epoch takes. base is the page count before the first doc.
func ingestLane(c *http.Client, baseURL string, bodies [][]byte, base int, withStatus bool) *writeResult {
	res := &writeResult{}
	for _, body := range bodies {
		res.attempted++
		code, _, err := post(c, baseURL+"/ingest", body)
		accepted := time.Now()
		if err != nil || code != http.StatusAccepted {
			res.fail("ingest: %d %v", code, err)
			continue
		}
		res.accepted++
		need := base + res.accepted
		var statusAt time.Time
		for deadline := accepted.Add(60 * time.Second); ; {
			next := time.Now().Add(pollEvery)
			if withStatus && statusAt.IsZero() {
				if st, err := status(c, baseURL); err == nil && st.Pages >= need {
					statusAt = time.Now()
				}
			}
			code, page, err := get(c, baseURL+"/")
			if err == nil && code == http.StatusOK && sum(frontCounts(page)) >= need {
				now := time.Now()
				res.visibleMs = append(res.visibleMs, ms(now.Sub(accepted)))
				if withStatus {
					if statusAt.IsZero() {
						statusAt = now
					}
					res.statusMs = append(res.statusMs, ms(statusAt.Sub(accepted)))
					res.uiLagMs = append(res.uiLagMs, ms(now.Sub(statusAt)))
				}
				break
			}
			if time.Now().After(deadline) {
				// Later docs would be counted against a wrong page total.
				res.fail("ingested doc not visible within 60s")
				return res
			}
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
	}
	return res
}
