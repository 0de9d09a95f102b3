// Package form implements the paper's form-page model extraction: parsing
// Web forms out of HTML, splitting a page's visible text into the FC (form
// contents) and PC (page contents) feature spaces, assigning the location
// factors used by the weighted TF-IDF of Equation 1, and filtering
// non-searchable forms with a generic form classifier (the pre-processing
// step the paper delegates to Barbosa & Freire's crawler [3]).
package form

import (
	"errors"
	"strings"
	"sync"

	"cafc/internal/htmlx"
	"cafc/internal/text"
	"cafc/internal/vector"
)

// Field is a single form control.
type Field struct {
	// Tag is the element name: input, select, textarea or button.
	Tag string
	// Type is the input type attribute (lower-cased), e.g. "text",
	// "hidden", "submit". Empty for non-input controls.
	Type string
	// Name is the control's name attribute.
	Name string
	// Value is the control's value attribute.
	Value string
	// Options holds the visible text of <option> children for selects.
	Options []string
	// Label is the text of an associated <label> element, when one
	// exists (the HTML label attribute the paper notes is rarely used).
	Label string
}

// Hidden reports whether the field is invisible to users. The paper's
// footnote 3 excludes type="hidden" fields from consideration.
func (f *Field) Hidden() bool {
	return f.Tag == "input" && f.Type == "hidden"
}

// Typable reports whether a user can enter free text into the field.
func (f *Field) Typable() bool {
	if f.Tag == "textarea" {
		return true
	}
	if f.Tag != "input" {
		return false
	}
	switch f.Type {
	case "", "text", "search":
		return true
	}
	return false
}

// Selectable reports whether the field offers a fixed set of choices.
func (f *Field) Selectable() bool {
	if f.Tag == "select" {
		return true
	}
	return f.Tag == "input" && (f.Type == "checkbox" || f.Type == "radio")
}

// Form is one parsed HTML form.
type Form struct {
	// Action and Method come from the <form> tag.
	Action string
	Method string
	// Text is the form subtree's visible text, captured at extraction so
	// classification and filtering keep working after the parse tree is
	// released.
	Text string
	// Fields are the form's controls in document order.
	Fields []Field
	// Node is the form's subtree in the parsed document. It is valid
	// during extraction; the pooled parsing entry points clear it before
	// the FormPage escapes, because the tree is arena-owned and recycled
	// on the parser's next page.
	Node *htmlx.Node
}

// AttributeCount returns the number of visible, non-button fields — the
// paper's notion of single- vs multi-attribute forms.
func (f *Form) AttributeCount() int {
	n := 0
	for _, fld := range f.Fields {
		if fld.Hidden() {
			continue
		}
		switch {
		case fld.Tag == "button":
		case fld.Tag == "input" && (fld.Type == "submit" || fld.Type == "button" || fld.Type == "reset" || fld.Type == "image"):
		default:
			n++
		}
	}
	return n
}

// ExtractForms returns every <form> element in the document.
func ExtractForms(doc *htmlx.Node) []*Form {
	var out []*Form
	for _, fn := range doc.FindAll("form") {
		out = append(out, extractForm(fn, true))
	}
	return out
}

// extractForm builds one Form in a single subtree traversal: the visible
// text (byte-identical to fn.Text()), the controls in document order,
// and the <label for=...> texts all come out of the same walk. Label
// references resolve after the walk because a label may appear later in
// the document than the control it names. Without options, select
// fields carry no Options: IsSearchable never reads them, and they are
// a string per <option>.
func extractForm(fn *htmlx.Node, options bool) *Form {
	f := &Form{
		Action: fn.Attr0("action"),
		Method: strings.ToUpper(htmlx.CollapseSpace(fn.Attr0("method"))),
		Node:   fn,
	}
	if f.Method == "" {
		f.Method = "GET"
	}
	var (
		b      strings.Builder
		space  bool
		labels map[string]string // lazily built: most forms carry no labels
		forIDs []string          // parallel to f.Fields: label id to resolve, "" for none
	)
	var walk func(n *htmlx.Node, fields bool)
	walk = func(n *htmlx.Node, fields bool) {
		switch n.Type {
		case htmlx.TextNode:
			for _, r := range n.Data {
				if r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == '\f' || r == '\u00a0' /* nbsp */ {
					space = true
					continue
				}
				if space && b.Len() > 0 {
					b.WriteByte(' ')
				}
				space = false
				b.WriteRune(r)
			}
			space = true // the separator between adjacent text nodes
			return
		case htmlx.ElementNode:
			switch n.Data {
			case "script", "style":
				// Raw-text content: invisible, and it cannot contain
				// controls or labels.
				return
			case "label":
				if id := n.Attr0("for"); id != "" {
					if labels == nil {
						labels = make(map[string]string)
					}
					labels[id] = n.Text()
				}
			case "input":
				if fields {
					f.Fields = append(f.Fields, Field{
						Tag:   "input",
						Type:  strings.ToLower(n.Attr0("type")),
						Name:  n.Attr0("name"),
						Value: n.Attr0("value"),
					})
					forIDs = append(forIDs, n.Attr0("id"))
				}
			case "textarea":
				if fields {
					f.Fields = append(f.Fields, Field{
						Tag:  "textarea",
						Name: n.Attr0("name"),
					})
					forIDs = append(forIDs, n.Attr0("id"))
				}
			case "button":
				if fields {
					f.Fields = append(f.Fields, Field{
						Tag:   "button",
						Type:  strings.ToLower(n.Attr0("type")),
						Name:  n.Attr0("name"),
						Value: n.Text(),
					})
					forIDs = append(forIDs, "")
				}
			case "select":
				if fields {
					fld := Field{
						Tag:  "select",
						Name: n.Attr0("name"),
					}
					if options {
						n.Walk(func(c *htmlx.Node) bool {
							if c.IsElement("option") {
								if t := c.Text(); t != "" {
									fld.Options = append(fld.Options, t)
								}
							}
							return true
						})
					}
					f.Fields = append(f.Fields, fld)
					forIDs = append(forIDs, n.Attr0("id"))
					// Options are consumed; anything nested deeper is not
					// one of the form's own controls. The subtree still
					// contributes text and labels.
					fields = false
				}
			}
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			walk(c, fields)
		}
	}
	walk(fn, true)
	f.Text = b.String()
	for i, id := range forIDs {
		if id != "" {
			f.Fields[i].Label = labels[id]
		}
	}
	return f
}

// nonSearchableMarkers are terms whose presence in a form's text or field
// names marks it as a non-searchable form (login, registration, mailing
// list, quote request, ...). This is a compact re-implementation of the
// generic form classifier the paper relies on as a pre-filter.
var nonSearchableMarkers = []string{
	"login", "log in", "logon", "sign in", "signin", "sign up", "signup",
	"register", "registration", "password", "subscribe", "newsletter",
	"mailing list", "contact us", "feedback", "quote request",
	"request a quote", "username", "user name", "create account",
	"forgot", "unsubscribe", "comment", "guestbook",
}

// IsSearchable reports whether the form looks like a query interface to a
// database rather than a login/registration/contact form. The rules:
//
//   - a password field always disqualifies;
//   - at least one typable or selectable visible field is required;
//   - text containing non-searchable markers (login/subscribe/...)
//     disqualifies unless search markers are also present.
func IsSearchable(f *Form) bool {
	hasQueryField := false
	for _, fld := range f.Fields {
		if fld.Tag == "input" && fld.Type == "password" {
			return false
		}
		if fld.Hidden() {
			continue
		}
		if fld.Typable() || fld.Selectable() {
			hasQueryField = true
		}
	}
	if !hasQueryField {
		return false
	}
	blob := strings.ToLower(formTextBlob(f))
	searchy := strings.Contains(blob, "search") || strings.Contains(blob, "find") ||
		strings.Contains(blob, "browse") || strings.Contains(blob, "lookup") ||
		strings.Contains(blob, "go")
	if searchy {
		return true
	}
	for _, marker := range nonSearchableMarkers {
		if strings.Contains(blob, marker) {
			return false
		}
	}
	return true
}

// formTextBlob concatenates all textual evidence about a form: inner text,
// field names, values and labels.
func formTextBlob(f *Form) string {
	var b strings.Builder
	if f.Text != "" {
		b.WriteString(f.Text)
	} else if f.Node != nil {
		b.WriteString(f.Node.Text())
	}
	for _, fld := range f.Fields {
		b.WriteByte(' ')
		b.WriteString(fld.Name)
		b.WriteByte(' ')
		b.WriteString(fld.Value)
		b.WriteByte(' ')
		b.WriteString(fld.Label)
	}
	return b.String()
}

// Weights holds the LOC factors of Equation 1. The paper uses a simple
// scheme: form contents weigh more than option-tag contents (schema terms
// over data values), and title terms weigh more than body terms.
type Weights struct {
	Title  float64 // PC: terms inside <title>
	Body   float64 // PC: all other page text
	Form   float64 // FC: form text outside <option>
	Option float64 // FC: text inside <option> tags
}

// DefaultWeights is the differentiated-weight configuration of Section
// 4.4: title terms above body terms in PC, and form (schema) terms above
// option (data) terms in FC.
var DefaultWeights = Weights{Title: 3, Body: 1, Form: 3, Option: 1}

// UniformWeights is the Section 4.4 ablation: every location counts 1.
var UniformWeights = Weights{Title: 1, Body: 1, Form: 1, Option: 1}

// FormPage is the paper's FP(PC, FC) object before TF-IDF weighting: the
// raw weighted term occurrences of both feature spaces plus metadata.
type FormPage struct {
	// URL locates the page; it doubles as the page identifier.
	URL string
	// Title is the document title text.
	Title string
	// Form is the searchable form this page was admitted for.
	Form *Form
	// FCTerms are the form-content term occurrences with LOC factors.
	FCTerms []vector.WeightedTerm
	// PCTerms are the page-content term occurrences with LOC factors.
	PCTerms []vector.WeightedTerm
}

// FormTermCount returns the number of term occurrences in FC — the paper's
// "form size" used for Table 1.
func (fp *FormPage) FormTermCount() int { return len(fp.FCTerms) }

// PageTermsOutsideForm returns the number of page term occurrences located
// outside the form (Table 1's "Page terms - Form terms").
func (fp *FormPage) PageTermsOutsideForm() int {
	d := len(fp.PCTerms) - len(fp.FCTerms)
	if d < 0 {
		return 0
	}
	return d
}

// ErrNoSearchableForm is returned when a page contains no searchable form.
var ErrNoSearchableForm = errors.New("form: page has no searchable form")

// Parser is a reusable form-page extractor: it owns a text.Tokenizer
// whose token→stem memo and output buffers persist across pages, so the
// tokenize/stem cost of the term walks — the bulk of Parse — amortizes
// toward zero allocations per document. Not safe for concurrent use;
// the package-level Parse/FromDoc/Terms hand out pooled parsers, and
// the ingest pipeline's shard workers each hold their own.
type Parser struct {
	tk *text.Tokenizer
	// arena backs the parse tree of the page in flight; it is recycled
	// on the next Parse, which is why Parse severs Form.Node below.
	arena *htmlx.Arena
	// fc and pc stage a page's two term walks. Parse seals them into
	// exact-size slices (no growth garbage, no capacity overshoot pinned
	// in the model for the page's lifetime); Terms lends them out as is.
	fc, pc []vector.WeightedTerm
}

// NewParser returns a parser with fresh tokenizer state.
func NewParser() *Parser {
	return &Parser{tk: text.NewTokenizer(), arena: &htmlx.Arena{}}
}

// Parse builds the FormPage for an HTML document. It keeps the first
// searchable form (pages in the corpus are expected to be form pages
// already filtered by the crawler), and computes both feature spaces
// with the given location weights.
func (p *Parser) Parse(url, html string, w Weights) (*FormPage, error) {
	p.arena.Reset()
	fp, err := p.FromDoc(url, htmlx.ParseArena(html, p.arena), w)
	if err != nil {
		return nil, err
	}
	// The tree is arena memory: it must not outlive this parser's next
	// page. Everything downstream needs only the extracted strings.
	fp.Form.Node = nil
	return fp, nil
}

// FromDoc is Parse for an already-parsed document.
func (p *Parser) FromDoc(url string, doc *htmlx.Node, w Weights) (*FormPage, error) {
	chosen := firstSearchable(doc, true)
	if chosen == nil {
		return nil, ErrNoSearchableForm
	}
	return &FormPage{
		URL:     url,
		Title:   htmlx.Title(doc),
		Form:    chosen,
		FCTerms: seal(p.formContentTerms(chosen, w)),
		PCTerms: seal(p.pageContentTerms(doc, w)),
	}, nil
}

// terms returns the FC and PC term occurrences Parse would put in the
// page's FormPage, without building one. Both slices are the parser's
// scratch: they are valid only until its next call.
func (p *Parser) terms(html string, w Weights) (fc, pc []vector.WeightedTerm, err error) {
	p.arena.Reset()
	doc := htmlx.ParseArena(html, p.arena)
	chosen := firstSearchable(doc, false)
	if chosen == nil {
		return nil, nil, ErrNoSearchableForm
	}
	return p.formContentTerms(chosen, w), p.pageContentTerms(doc, w), nil
}

// firstSearchable extracts the document's forms in order and returns
// the first one IsSearchable accepts, or nil. Forms after it are never
// extracted.
func firstSearchable(doc *htmlx.Node, options bool) *Form {
	var chosen *Form
	doc.Walk(func(n *htmlx.Node) bool {
		if chosen != nil {
			return false
		}
		if n.IsElement("form") {
			if f := extractForm(n, options); IsSearchable(f) {
				chosen = f
			}
		}
		return true
	})
	return chosen
}

// seal copies a staged term walk into an exact-size slice the caller may
// retain, leaving the scratch for the next page.
func seal(terms []vector.WeightedTerm) []vector.WeightedTerm {
	if len(terms) == 0 {
		return nil
	}
	out := make([]vector.WeightedTerm, len(terms))
	copy(out, terms)
	return out
}

// parserPool recycles Parser state across the package-level entry
// points, so serial callers (and each P of a parallel caller) reuse one
// warm tokenizer instead of re-allocating per page.
var parserPool = sync.Pool{New: func() any { return NewParser() }}

// Parse is Parser.Parse on a pooled parser — the drop-in stateless
// entry point. Output is identical to a fresh parser's (the tokenizer
// memo is a pure-function cache).
func Parse(url, html string, w Weights) (*FormPage, error) {
	p := parserPool.Get().(*Parser)
	defer parserPool.Put(p)
	return p.Parse(url, html, w)
}

// FromDoc is Parse for an already-parsed document.
func FromDoc(url string, doc *htmlx.Node, w Weights) (*FormPage, error) {
	p := parserPool.Get().(*Parser)
	defer parserPool.Put(p)
	return p.FromDoc(url, doc, w)
}

// Terms hands use the FC and PC term occurrences Parse would put in
// the page's FormPage, without building one. The slices are a pooled
// parser's scratch: use must not retain them, as they go back to the
// pool when it returns. Nothing is called when the page has no
// searchable form.
func Terms(html string, w Weights, use func(fc, pc []vector.WeightedTerm)) error {
	p := parserPool.Get().(*Parser)
	defer parserPool.Put(p)
	fc, pc, err := p.terms(html, w)
	if err != nil {
		return err
	}
	use(fc, pc)
	return nil
}

// formContentTerms extracts FC: the stemmed terms of the text between the
// FORM tags, with option-tag content at the (lower) Option LOC factor, and
// visible control text (submit values, labels, alt text) at the Form
// factor. Hidden-field values are excluded.
func (p *Parser) formContentTerms(f *Form, w Weights) []vector.WeightedTerm {
	p.fc = p.fc[:0]
	add := func(s string, loc float64) {
		// tk.Terms reuses its output slice; the terms are copied into
		// the scratch before the next call, so the aliasing never
		// escapes.
		for _, t := range p.tk.Terms(s) {
			p.fc = append(p.fc, vector.WeightedTerm{Term: t, Loc: loc})
		}
	}
	var walk func(n *htmlx.Node, inOption bool)
	walk = func(n *htmlx.Node, inOption bool) {
		switch n.Type {
		case htmlx.TextNode:
			loc := w.Form
			if inOption {
				loc = w.Option
			}
			add(n.Data, loc)
			return
		case htmlx.ElementNode:
			switch n.Data {
			case "script", "style":
				return
			case "option":
				inOption = true
			case "input":
				typ := strings.ToLower(n.Attr0("type"))
				switch typ {
				case "submit", "button", "reset":
					add(n.Attr0("value"), w.Form)
				case "image":
					add(n.Attr0("alt"), w.Form)
				}
				return
			case "img":
				add(n.Attr0("alt"), w.Form)
				return
			}
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			walk(c, inOption)
		}
	}
	if f.Node != nil {
		walk(f.Node, false)
	}
	return p.fc
}

// pageContentTerms extracts PC: every visible term on the page, with title
// terms at the Title LOC factor and everything else at Body.
func (p *Parser) pageContentTerms(doc *htmlx.Node, w Weights) []vector.WeightedTerm {
	p.pc = p.pc[:0]
	add := func(s string, loc float64) {
		for _, t := range p.tk.Terms(s) {
			p.pc = append(p.pc, vector.WeightedTerm{Term: t, Loc: loc})
		}
	}
	var walk func(n *htmlx.Node, inTitle bool)
	walk = func(n *htmlx.Node, inTitle bool) {
		switch n.Type {
		case htmlx.TextNode:
			loc := w.Body
			if inTitle {
				loc = w.Title
			}
			add(n.Data, loc)
			return
		case htmlx.ElementNode:
			switch n.Data {
			case "script", "style":
				return
			case "title":
				inTitle = true
			case "img":
				add(n.Attr0("alt"), w.Body)
				return
			case "input":
				typ := strings.ToLower(n.Attr0("type"))
				if typ == "submit" || typ == "button" || typ == "reset" {
					add(n.Attr0("value"), w.Body)
				}
				return
			}
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			walk(c, inTitle)
		}
	}
	walk(doc, false)
	return p.pc
}
