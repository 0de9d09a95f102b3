package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cafc/internal/directory"
	"cafc/internal/obs"
)

// newDirectorydMux mounts a directory UI the way cmd/directoryd mounts
// its routes under -metrics: debug routes first, the instrumented
// handler at /.
func newDirectorydMux(reg *obs.Registry, ring *obs.RingSink) http.Handler {
	srv := directory.Build(
		[][]string{{"http://a.example/jobs"}, {"http://b.example/books"}},
		[]string{"jobs", "books"},
		map[string]string{
			"http://a.example/jobs":  "<html><head><title>Job Search</title></head><body>find jobs</body></html>",
			"http://b.example/books": "<html><head><title>Book Store</title></head><body>buy books</body></html>",
		},
	)
	mux := obs.DebugMux(reg, ring, true)
	mux.Handle("/", obs.InstrumentHandler(reg, srv.Handler()))
	return mux
}

// TestDirectorydMetricsEndpoint is the /metrics smoke test: hit the
// directory UI, then scrape and check the exposition is non-empty and
// carries both domain and HTTP metrics.
func TestDirectorydMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("kmeans_moved_fraction").Set(0.08) // as a clustering run would
	ts := httptest.NewServer(newDirectorydMux(reg, obs.NewRingSink(16)))
	defer ts.Close()

	for _, path := range []string{"/", "/cluster?id=0", "/select?q=jobs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	expo := string(body)
	if len(strings.TrimSpace(expo)) == 0 {
		t.Fatal("empty exposition")
	}
	for _, want := range []string{
		"kmeans_moved_fraction 0.08",
		"# TYPE http_requests_total counter",
		`http_requests_total{code="200",path="/"} 1`,
		"http_request_seconds_bucket",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q:\n%s", want, expo)
		}
	}
}

// TestDebugVarsAndTrace: /debug/vars serves valid JSON; /debug/trace
// serves the ring.
func TestDebugVarsAndTrace(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x_total").Inc()
	ring := obs.NewRingSink(4)
	ring.Record(obs.SpanData{Name: "load", SpanID: 1})
	ts := httptest.NewServer(obs.DebugMux(reg, ring, false))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]interface{}
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if vars["x_total"] != 1.0 {
		t.Fatalf("x_total = %v", vars["x_total"])
	}

	resp, err = http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var spans []map[string]interface{}
	err = json.NewDecoder(resp.Body).Decode(&spans)
	resp.Body.Close()
	if err != nil || len(spans) != 1 || spans[0]["name"] != "load" {
		t.Fatalf("/debug/trace = %v (err %v)", spans, err)
	}
}

// TestPprofGating: pprof routes exist only when enabled.
func TestPprofGating(t *testing.T) {
	reg := obs.NewRegistry()
	on := httptest.NewServer(obs.DebugMux(reg, nil, true))
	defer on.Close()
	resp, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enabled pprof index: status %d", resp.StatusCode)
	}

	off := httptest.NewServer(obs.DebugMux(reg, nil, false))
	defer off.Close()
	resp, err = http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled pprof index: status %d, want 404", resp.StatusCode)
	}
}
