// Package directory serves a clustered hidden-web directory over HTTP —
// the query-based cluster-exploration interface the paper's Section 6
// proposes. It exposes the cluster listing, per-cluster member pages and
// a cluster-level (database-selection) search, all backed by the
// compiled retrieval subsystem in internal/search. Every page's header
// also carries a page-search form that submits to /search, a route the
// serving binary mounts beside this handler (cmd/directoryd answers it
// with ranked JSON hits and labeled facets from the same index).
package directory

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"cafc/internal/form"
	"cafc/internal/htmlx"
	"cafc/internal/search"
)

// Entry is one hidden-web source in the directory: the URL and title
// its search index stores.
type Entry = search.Meta

// Server is the directory state behind the HTTP handler. Its browse
// pages are rendered once, on each page's first request, and served
// from memory after that, so Labels and Clusters must not change once
// the handler has served a page. A new directory state is a new Server:
// the live directory builds one per epoch, which drops the previous
// epoch's pages with it.
type Server struct {
	// Labels names each cluster.
	Labels []string
	// Clusters holds the member entries of each cluster.
	Clusters [][]Entry
	snap     *search.Snapshot
	// pages holds the front page at index 0 and cluster i's member page
	// at index i+1.
	pages []page
}

// page is one browse page's HTML, rendered on its first request.
type page struct {
	once sync.Once
	html []byte
}

// New serves a directory from a frozen search index: the clusters and
// their member titles come from the snapshot's assignment, and clusters
// whose provided label is empty get the index's discriminative label
// instead.
func New(snap *search.Snapshot, labels []string) *Server {
	s := &Server{Clusters: snap.Members(), snap: snap}
	for i, label := range snap.ClusterLabels() {
		if i < len(labels) && labels[i] != "" {
			label = labels[i]
		}
		s.Labels = append(s.Labels, label)
	}
	s.pages = make([]page, len(s.Clusters)+1)
	return s
}

// Build assembles a directory from cluster member URLs, their HTML
// bodies, and cluster labels. Pages are indexed through the same
// Equation-1 term pipeline the model uses (search.PageTerms), so the
// index ranks exactly like the live directory's; the frozen index is
// then served through New. The live directory serves each epoch's own
// index through New and never calls Build, which stays as the
// re-parsing reference that tests compare that path against.
func Build(clusters [][]string, labels []string, html map[string]string) *Server {
	b := search.NewBuilder(nil)
	var assign []int
	for ci, members := range clusters {
		for _, u := range members {
			title, terms := search.PageTerms(u, html[u], form.DefaultWeights)
			b.Add(u, title, terms)
			assign = append(assign, ci)
		}
	}
	return New(b.Freeze(1, assign, len(clusters), search.Options{}), labels)
}

// Handler returns the HTTP handler:
//
//	GET /                  directory front page (clusters + sizes)
//	GET /cluster?id=N      member listing of cluster N
//	GET /select?q=...      ranked clusters (database selection)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.front)
	mux.HandleFunc("/cluster", s.cluster)
	mux.HandleFunc("/select", s.selectDB)
	return mux
}

// serve writes page i, rendering it on its first request.
func (s *Server) serve(w http.ResponseWriter, i int, render func(io.Writer)) {
	p := &s.pages[i]
	p.once.Do(func() {
		var b bytes.Buffer
		render(&b)
		p.html = b.Bytes()
	})
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(p.html)
}

func writeHeader(w http.ResponseWriter, title string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	writeHead(w, title)
}

func writeHead(w io.Writer, title string) {
	fmt.Fprintf(w, "<html><head><title>%s</title></head><body><h1>%s</h1>\n",
		htmlx.EscapeText(title), htmlx.EscapeText(title))
	fmt.Fprint(w, `<p><a href="/">directory</a> · <form style="display:inline" action="/search"><input name="q"><input type="submit" value="Search pages"></form> · <form style="display:inline" action="/select"><input name="q"><input type="submit" value="Select databases"></form></p>`)
}

func (s *Server) front(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.serve(w, 0, s.renderFront)
}

func (s *Server) renderFront(w io.Writer) {
	writeHead(w, "Hidden-Web Database Directory")
	fmt.Fprint(w, "<ul>\n")
	for i, members := range s.Clusters {
		fmt.Fprintf(w, `<li><a href="/cluster?id=%d">%s</a> (%d databases)</li>`+"\n",
			i, htmlx.EscapeText(s.Labels[i]), len(members))
	}
	fmt.Fprint(w, "</ul></body></html>")
}

func (s *Server) cluster(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil || id < 0 || id >= len(s.Clusters) {
		http.Error(w, "unknown cluster", http.StatusNotFound)
		return
	}
	s.serve(w, id+1, func(w io.Writer) { s.renderCluster(w, id) })
}

func (s *Server) renderCluster(w io.Writer, id int) {
	writeHead(w, "Cluster: "+s.Labels[id])
	fmt.Fprint(w, "<ul>\n")
	for _, e := range s.Clusters[id] {
		fmt.Fprintf(w, `<li><a href="%s">%s</a> — %s</li>`+"\n",
			htmlx.EscapeAttr(e.URL), htmlx.EscapeText(e.URL), htmlx.EscapeText(e.Title))
	}
	fmt.Fprint(w, "</ul></body></html>")
}

func (s *Server) selectDB(w http.ResponseWriter, r *http.Request) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	writeHeader(w, "Database selection: "+q)
	if q == "" {
		fmt.Fprint(w, "<p>empty query</p></body></html>")
		return
	}
	chs := s.snap.SearchClusters(q, 8)
	if len(chs) == 0 {
		fmt.Fprint(w, "<p>no matching databases</p></body></html>")
		return
	}
	fmt.Fprint(w, "<ol>\n")
	for _, ch := range chs {
		label := ch.Label
		if ch.Cluster >= 0 && ch.Cluster < len(s.Labels) {
			label = s.Labels[ch.Cluster]
		}
		fmt.Fprintf(w, `<li><a href="/cluster?id=%d">%s</a> — %d matching sources, best: %s (total score %.3f)</li>`+"\n",
			ch.Cluster, htmlx.EscapeText(label), ch.Matches,
			htmlx.EscapeText(ch.Best.URL), ch.Score)
	}
	fmt.Fprint(w, "</ol></body></html>")
}
