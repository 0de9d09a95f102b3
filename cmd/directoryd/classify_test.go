package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"cafc"
	"cafc/internal/webgen"
)

// classifyFixture serves a warm live directory over a generated genesis
// and returns held-out pages of the same web as /classify bodies,
// encoded the way encoding/json (and so every JSON client library that
// escapes HTML) sends them: each '<' and '>' becomes a < escape.
func classifyFixture(tb testing.TB, genesis, heldOut int) (*liveServer, [][]byte) {
	tb.Helper()
	c := webgen.Generate(webgen.Config{Seed: 702, FormPages: genesis + heldOut})
	var docs []cafc.Document
	for _, u := range c.FormPages {
		docs = append(docs, cafc.Document{URL: u, HTML: c.ByURL[u].HTML})
	}
	corpus, err := cafc.NewCorpus(docs[:genesis], cafc.Options{SkipNonSearchable: true})
	if err != nil {
		tb.Fatal(err)
	}
	ls := &liveServer{}
	live, err := cafc.NewLive(corpus, docs[:genesis], corpus.ClusterC(8, 1), cafc.LiveConfig{
		K: 8, Seed: 1, FlushInterval: 5 * time.Millisecond,
		OnPublish: ls.onPublish, Search: &cafc.SearchConfig{},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(live.Close)
	ls.live = live
	var bodies [][]byte
	for _, d := range docs[genesis:] {
		b, err := json.Marshal(map[string]string{"url": d.URL, "html": d.HTML})
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	return ls, bodies
}

// classifyOnce posts one body through h and fails unless it is answered
// with a 200.
func classifyOnce(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("classify = %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkClassifyHandler is one /classify request through the live
// mux: body decode, form parse, scoring and the JSON answer. check.sh
// runs it once with -benchmem so per-request allocations stay visible.
func BenchmarkClassifyHandler(b *testing.B) {
	ls, bodies := classifyFixture(b, 300, 100)
	h := ls.mux()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classifyOnce(b, h, bodies[i%len(bodies)])
	}
}

// FuzzClassifyBody holds the /classify body decoder to json.Decoder,
// which decoded every body before it: for any bytes, both accept or
// both fail with the same error, and accepted bodies give the same URL
// and HTML. Each body is decoded twice through one docBuf, so state
// left by a previous body cannot leak into the next.
func FuzzClassifyBody(f *testing.F) {
	page, err := json.Marshal(map[string]string{
		"url":  "http://books.example/search",
		"html": `<html><head><title>Find "books" & more</title></head><body><form action="/q"><input name="title"></form></body></html>`,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(page),
		`{"url":"http://x/","html":"<form action=q><input name=title></form>"}`,
		` {"html" : "<form>" , "url" : "u"} ` + "\n",
		`{"url":"café","html":"café ü 日本 日"}`,
		`{"url":"","html":"😀 pair"}`,
		`{"url":"","html":"lone \ud83d high"}`,
		`{"url":"","html":"lone \ude00 low"}`,
		`{"url":"","html":"\ud83dA then \ud83dx"}`,
		`{"url":"","html":"\ud83d😀"}`,
		"{\"url\":\"bad \xff\xfe utf8\",\"html\":\"cut \xe6\x97\"}",
		"{\"url\":\"a\x01b\"}",
		"{\"url\":\"tab\there\"}",
		`{"url":"\"q\" \\ \/ \b\f\n\r\t \u0000"}`,
		`{"url":"\'"}`,
		`{"url":"\x41"}`,
		`{"url":"\u12"}`,
		`{"URL":"x","html":"y"}`,
		`{"Url":"x"}`,
		`{"url":"x","extra":1}`,
		`{"url":null,"html":"y"}`,
		`{"url":1}`,
		`{"url":"a","url":"b"}`,
		`{"url":"a","html":"b","html":"c"}`,
		`{"url":"a"} x`,
		`{"url":"a"}{}`,
		`{"url":"a",}`,
		`{"url":"a"`,
		`{"url" "a"}`,
		``,
		`   `,
		`{}`,
		`[]`,
		`null`,
		`"url"`,
	} {
		f.Add([]byte(seed))
	}
	var d docBuf
	f.Fuzz(func(t *testing.T, b []byte) {
		var want ingestRequest
		werr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
		for pass := 0; pass < 2; pass++ {
			got, err := d.decode(b)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("pass %d: decode error %v, json.Decoder %v on %q", pass, err, werr, b)
			}
			if err == nil && got != want {
				t.Fatalf("pass %d: decode %+v, json.Decoder %+v on %q", pass, got, want, b)
			}
		}
	})
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so an allocation count through the handler counts the
// handler's own allocations, not a recorder's.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(b), nil
}

// TestClassifyHandlerAllocs pins the allocations of one /classify
// request through the live mux at a warm steady state: body decode,
// form parse, scoring and the JSON answer. Decoding with json.Decoder,
// building a FormPage with every option string and encoding a map made
// 138 per request on these pages; the handler makes 28. The ceiling
// leaves 12 for pages with more forms or fields than these.
func TestClassifyHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const runs = 100
	ls, bodies := classifyFixture(t, 300, 20)
	h := ls.mux()
	// AllocsPerRun measures at GOMAXPROCS 1, and changing GOMAXPROCS
	// empties every sync.Pool: warm the pooled parsers' stem memos and
	// the scoring scratch at the setting it measures at.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, b := range bodies {
		classifyOnce(t, h, b)
	}
	reqs := make([]*http.Request, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(bodies[i%len(bodies)]))
	}
	w := &discardWriter{h: http.Header{}}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		w.code = 0
		h.ServeHTTP(w, reqs[i])
		i++
	})
	if w.code != http.StatusOK {
		t.Fatalf("classify = %d", w.code)
	}
	if allocs > 40 {
		t.Fatalf("%.0f allocations per /classify request, want at most 40", allocs)
	}
	t.Logf("%.1f allocations per /classify request", allocs)
}

// TestClassifyAnswerBytes: each /classify answer is byte for byte the
// encoding of a map of its keys, the form it was first served in.
func TestClassifyAnswerBytes(t *testing.T) {
	ls, bodies := classifyFixture(t, 300, 20)
	h := ls.mux()
	e := ls.live.Epoch()
	for _, body := range bodies {
		var req ingestRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		p, ok, err := e.Classify(cafc.Document{URL: req.URL, HTML: req.HTML})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(map[string]any{
			"cluster":    p.Cluster,
			"label":      p.Label,
			"similarity": p.Similarity,
			"ok":         ok,
			"epoch":      e.Epoch,
		})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body)))
		if rec.Body.String() != want.String() {
			t.Fatalf("/classify answered\n%s, want\n%s", rec.Body, &want)
		}
	}
}
