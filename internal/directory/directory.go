// Package directory serves a clustered hidden-web directory over HTTP —
// the query-based cluster-exploration interface the paper's Section 6
// proposes. It exposes the cluster listing, per-cluster member pages, a
// ranked page search with labeled dynamic facets and a cluster-level
// (database-selection) search, all backed by the compiled retrieval
// subsystem in internal/search.
package directory

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"cafc/internal/form"
	"cafc/internal/htmlx"
	"cafc/internal/search"
)

// Entry is one hidden-web source in the directory: the URL and title
// its search index stores.
type Entry = search.Meta

// Server is the directory state behind the HTTP handler.
type Server struct {
	// Labels names each cluster.
	Labels []string
	// Clusters holds the member entries of each cluster.
	Clusters [][]Entry
	snap     *search.Snapshot
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
	return s
}

// Build assembles a directory from cluster member URLs, their HTML
// bodies, and cluster labels. Pages are indexed through the same
// Equation-1 term pipeline the model uses (search.PageTerms), so ranked
// search here scores exactly like the live directory's; the frozen index
// is then served through New.
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
//	GET /search?q=...      ranked page results with dynamic facets
//	GET /select?q=...      ranked clusters (database selection)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.front)
	mux.HandleFunc("/cluster", s.cluster)
	mux.HandleFunc("/search", s.search)
	mux.HandleFunc("/select", s.selectDB)
	return mux
}

func writeHeader(w http.ResponseWriter, title string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<html><head><title>%s</title></head><body><h1>%s</h1>\n",
		htmlx.EscapeText(title), htmlx.EscapeText(title))
	fmt.Fprint(w, `<p><a href="/">directory</a> · <form style="display:inline" action="/search"><input name="q"><input type="submit" value="Search pages"></form> · <form style="display:inline" action="/select"><input name="q"><input type="submit" value="Select databases"></form></p>`)
}

func (s *Server) front(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	writeHeader(w, "Hidden-Web Database Directory")
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
	writeHeader(w, "Cluster: "+s.Labels[id])
	fmt.Fprint(w, "<ul>\n")
	for _, e := range s.Clusters[id] {
		fmt.Fprintf(w, `<li><a href="%s">%s</a> — %s</li>`+"\n",
			htmlx.EscapeAttr(e.URL), htmlx.EscapeText(e.URL), htmlx.EscapeText(e.Title))
	}
	fmt.Fprint(w, "</ul></body></html>")
}

func (s *Server) search(w http.ResponseWriter, r *http.Request) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	writeHeader(w, "Search: "+q)
	if q == "" {
		fmt.Fprint(w, "<p>empty query</p></body></html>")
		return
	}
	res, _ := s.snap.Search(q, 20)
	if len(res.Hits) == 0 {
		fmt.Fprint(w, "<p>no results</p></body></html>")
		return
	}
	if len(res.Facets) > 0 {
		fmt.Fprint(w, "<p>Result groups: ")
		for i, f := range res.Facets {
			if i > 0 {
				fmt.Fprint(w, " · ")
			}
			fmt.Fprintf(w, "<b>%s</b> (%d)", htmlx.EscapeText(f.Label), f.Size)
		}
		fmt.Fprint(w, "</p>\n")
	}
	fmt.Fprint(w, "<ol>\n")
	for _, h := range res.Hits {
		label := h.ClusterLabel
		if h.Cluster >= 0 && h.Cluster < len(s.Labels) {
			label = s.Labels[h.Cluster]
		}
		fmt.Fprintf(w, `<li><a href="%s">%s</a> — %s (cluster <a href="/cluster?id=%d">%s</a>, score %.3f)</li>`+"\n",
			htmlx.EscapeAttr(h.URL), htmlx.EscapeText(h.URL), htmlx.EscapeText(h.Title),
			h.Cluster, htmlx.EscapeText(label), h.Score)
	}
	fmt.Fprint(w, "</ol></body></html>")
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
