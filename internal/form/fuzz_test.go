package form_test

import (
	"reflect"
	"slices"
	"testing"

	"cafc/internal/form"
	"cafc/internal/htmlx"
	"cafc/internal/vector"
	"cafc/internal/webgen"
)

// FuzzParseForms: form extraction and the full form-page model build
// must be total over arbitrary HTML — no panics, deterministic output,
// and every extracted form structurally sound. Seeds come from webgen
// pages (the realistic corpus) plus adversarial form fragments.
func FuzzParseForms(f *testing.F) {
	seeds := []string{
		"",
		"<form></form>",
		"<form action=/search><input type=text name=q><input type=submit></form>",
		"<form><select name=genre><option>rock<option selected>jazz</select></form>",
		"<form><input type=hidden name=sid value=1><textarea name=notes></textarea></form>",
		"<form><label for=a>Artist</label><input id=a name=artist></form>",
		"<input name=orphan outside=form>",
		"<form><form><input name=nested></form></form>",
		"<form><button>Go</button><input type=checkbox name=c value>",
	}
	c := webgen.Generate(webgen.Config{Seed: 9, FormPages: 6})
	for _, u := range c.FormPages {
		seeds = append(seeds, c.ByURL[u].HTML)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := htmlx.Parse(src)
		forms := form.ExtractForms(doc)
		for i, fm := range forms {
			if fm == nil {
				t.Fatalf("form %d is nil", i)
			}
			for _, fd := range fm.Fields {
				// Field predicates must be total and consistent.
				if fd.Hidden() && fd.Typable() {
					t.Errorf("field %+v both hidden and typable", fd)
				}
			}
			_ = form.IsSearchable(fm)
		}
		// Extraction is deterministic: parsing the same bytes twice
		// yields identical structures.
		if again := form.ExtractForms(htmlx.Parse(src)); !reflect.DeepEqual(forms, again) {
			t.Error("ExtractForms not deterministic")
		}

		// The full model build either errors cleanly (no searchable
		// form) or returns a well-formed page.
		fp, err := form.Parse("http://fuzz.example/f", src, form.DefaultWeights)
		if err != nil {
			return
		}
		if fp == nil {
			t.Fatal("nil FormPage with nil error")
		}
	})
}

// TestTermsMatchParse: Terms lends out exactly the FC and PC term lists
// Parse seals into its FormPage, and fails exactly when Parse does; and
// Parse, which stops extracting at the first searchable form, keeps
// the form a full ExtractForms pass would choose, option strings and
// all.
func TestTermsMatchParse(t *testing.T) {
	pages := []string{
		"",
		"<form action=/login><input type=password name=p></form>",
		"<form>log in</form><form action=/s><select name=g><option>rock<option>jazz</select><input type=submit value=Search></form><form><select name=late><option>x</select></form>",
		"<form><select name=a><option>one<select name=b><option>two</select></select><input name=q></form>",
	}
	c := webgen.Generate(webgen.Config{Seed: 702, FormPages: 300})
	for _, u := range c.FormPages {
		pages = append(pages, c.ByURL[u].HTML)
	}
	for i, html := range pages {
		fp, perr := form.Parse("http://terms.example/", html, form.DefaultWeights)
		var fc, pc []vector.WeightedTerm
		terr := form.Terms(html, form.DefaultWeights, func(f, p []vector.WeightedTerm) {
			fc, pc = slices.Clone(f), slices.Clone(p)
		})
		if perr != terr {
			t.Fatalf("page %d: Terms error %v, Parse error %v", i, terr, perr)
		}
		if perr != nil {
			continue
		}
		if !slices.Equal(fc, fp.FCTerms) || !slices.Equal(pc, fp.PCTerms) {
			t.Fatalf("page %d: Terms gave %d FC and %d PC terms, Parse %d and %d, or their values differ", i, len(fc), len(pc), len(fp.FCTerms), len(fp.PCTerms))
		}
		var first *form.Form
		for _, f := range form.ExtractForms(htmlx.Parse(html)) {
			if form.IsSearchable(f) {
				first = f
				break
			}
		}
		first.Node = nil
		if !reflect.DeepEqual(fp.Form, first) {
			t.Fatalf("page %d: Parse kept form %+v, the first searchable of all forms is %+v", i, fp.Form, first)
		}
	}
}
