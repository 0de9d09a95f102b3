package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cafc/internal/dataset"
	"cafc/internal/obs"
	"cafc/internal/webgen"
)

// writeDataset saves an n-form-page generated corpus as the dataset
// -in reads, and returns its path.
func writeDataset(t *testing.T, seed int64, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.json.gz")
	if err := dataset.FromCorpus(webgen.Generate(webgen.Config{Seed: seed, FormPages: n})).Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// startupSpans starts the directory with a ring-sink tracer in the
// context and returns the spans the start recorded.
func startupSpans(t *testing.T, p liveParams) (*liveServer, []obs.SpanData) {
	t.Helper()
	ring := obs.NewRingSink(64)
	ls, err := startLive(obs.WithTracer(context.Background(), obs.NewTracer(ring)), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ls, ring.Spans()
}

// startupChildren checks that spans form one tree under a "startup"
// root and returns the root's children, in the order they ended.
func startupChildren(t *testing.T, spans []obs.SpanData) []obs.SpanData {
	t.Helper()
	var roots, children []obs.SpanData
	for _, s := range spans {
		if s.ParentID == 0 {
			roots = append(roots, s)
		}
	}
	if len(roots) != 1 || roots[0].Name != "startup" {
		t.Fatalf("root spans %+v, want one named startup", roots)
	}
	for _, s := range spans {
		switch {
		case s.ParentID == roots[0].SpanID:
			children = append(children, s)
		case s.SpanID != roots[0].SpanID:
			t.Fatalf("span %q is not a child of startup", s.Name)
		}
	}
	return children
}

func spanNames(spans []obs.SpanData) []string {
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
	}
	return names
}

// attr returns a span's attribute value, or "" when it has none by key.
func attr(s obs.SpanData, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestStartLiveTracesStartup: a start from a dataset records "startup"
// → "load" (with the form page count), "cluster" (with k) and
// "genesis"; a restart on the same state dir records "startup" →
// "recover".
func TestStartLiveTracesStartup(t *testing.T) {
	p := liveParams{in: writeDataset(t, 7, 40), data: t.TempDir(), k: 4, seed: 7}
	ls, spans := startupSpans(t, p)
	pages := ls.live.Epoch().Corpus.Len()
	if err := ls.live.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	children := startupChildren(t, spans)
	if got, want := spanNames(children), []string{"load", "cluster", "genesis"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("startup children %q, want %q", got, want)
	}
	if got := attr(children[0], "form_pages"); got != "40" || pages != 40 {
		t.Errorf("load span form_pages = %q; the genesis has %d pages, want 40", got, pages)
	}
	if got := attr(children[1], "k"); got != "4" {
		t.Errorf("cluster span k = %q, want 4", got)
	}

	ls, spans = startupSpans(t, p)
	defer ls.live.Close()
	if got, want := spanNames(startupChildren(t, spans)), []string{"recover"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("restart's startup children %q, want %q", got, want)
	}
}

// TestStartLiveBacklinkOutage pins -backlink-outage-after on the one
// startup path: a genesis whose backlink service dies after 10 queries
// counts a degraded clustering run, and the zero-valued field keeps the
// service up. Either way the started server is ready: the breaker that
// opened guarded genesis alone.
func TestStartLiveBacklinkOutage(t *testing.T) {
	in := writeDataset(t, 7, 60)
	degraded := func(p liveParams) int64 {
		t.Helper()
		reg := obs.NewRegistry()
		ls, err := startLive(context.Background(), p, reg)
		if err != nil {
			t.Fatal(err)
		}
		defer ls.live.Close()
		rec := httptest.NewRecorder()
		ls.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("outageAt %d: /healthz = %d: %s", p.outageAt, rec.Code, rec.Body)
		}
		return reg.Counter("degraded_runs_total", "reason", "backlink_breaker_open").Value()
	}
	if n := degraded(liveParams{in: in, k: 4, seed: 7, retries: 3, outageAt: 11}); n != 1 {
		t.Errorf("genesis with the backlink outage counted %d degraded runs, want 1", n)
	}
	if n := degraded(liveParams{in: in, k: 4, seed: 7, retries: 3}); n != 0 {
		t.Errorf("genesis without an outage counted %d degraded runs, want 0", n)
	}
}

// TestRefusesKBelowOne: both roles refuse -k < 1, naming the flag,
// before they open the state dir or contact a leader.
func TestRefusesKBelowOne(t *testing.T) {
	for _, k := range []int{0, -1} {
		dir := t.TempDir()
		p := liveParams{data: dir, addr: "127.0.0.1:0", k: k}
		if ls, err := startLive(context.Background(), p, nil); err == nil {
			ls.live.Close()
			t.Errorf("-k %d: startLive started a directory", k)
		} else if !strings.Contains(err.Error(), "-k") {
			t.Errorf("-k %d: error %q does not name the flag", k, err)
		}
		err := runFollower(context.Background(), followerParams{liveParams: p, leader: "http://127.0.0.1:1"}, nil, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "-k") {
			t.Errorf("-k %d: follower error %v does not name the flag", k, err)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Errorf("-k %d: state dir holds %d entries (err %v), want none", k, len(ents), err)
		}
	}
}
