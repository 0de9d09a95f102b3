package cafc

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cafc/internal/cluster"
	"cafc/internal/vector"
)

// sameBits reports whether two packed vectors hold the same IDs and the
// same weight and norm bits.
func sameBits(a, b vector.Compiled) bool {
	if len(a.IDs) != len(b.IDs) || len(a.Weights) != len(b.Weights) ||
		math.Float64bits(a.Norm) != math.Float64bits(b.Norm) {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] || math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	return true
}

// assertSameModel requires two models to be equal bit for bit:
// parameters, DF tables, dictionaries, records and packed vectors.
func assertSameModel(t *testing.T, got, want *Model) {
	t.Helper()
	if got.C1 != want.C1 || got.C2 != want.C2 || got.Features != want.Features || got.Uniform != want.Uniform {
		t.Fatal("model parameters differ")
	}
	for _, df := range [][2]*vector.DocFreq{{got.PCDF, want.PCDF}, {got.FCDF, want.FCDF}} {
		gn, gm := df[0].Snapshot()
		wn, wm := df[1].Snapshot()
		if gn != wn || !reflect.DeepEqual(gm, wm) {
			t.Fatal("DF tables differ")
		}
	}
	g, w := got.compiled, want.compiled
	for _, d := range [][2]*vector.Dict{{g.pcDict, w.pcDict}, {g.fcDict, w.fcDict}} {
		if d[0].Len() != d[1].Len() {
			t.Fatalf("dictionary of %d terms, want %d", d[0].Len(), d[1].Len())
		}
		for id := 0; id < d[0].Len(); id++ {
			if d[0].Term(uint32(id)) != d[1].Term(uint32(id)) {
				t.Fatalf("dictionary ID %d is %q, want %q", id, d[0].Term(uint32(id)), d[1].Term(uint32(id)))
			}
		}
	}
	if got.Len() != want.Len() || len(g.pc) != len(w.pc) || len(g.fc) != len(w.fc) {
		t.Fatalf("%d pages, want %d", got.Len(), want.Len())
	}
	for i, p := range got.Pages {
		wp := want.Pages[i]
		if p.URL != wp.URL || !reflect.DeepEqual(p.Rec, wp.Rec) {
			t.Fatalf("page %d: URL or term record differs", i)
		}
		if !sameBits(g.pc[i], w.pc[i]) || !sameBits(g.fc[i], w.fc[i]) {
			t.Fatalf("page %d: packed vector bits differ", i)
		}
	}
}

// stateOf is the model's state with the partition res.
func stateOf(t *testing.T, m *Model, res *cluster.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.WriteState(&b, res); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestStateRoundTrip: a model with pages embedded at once and pages
// appended since (stale under today's DF tables), saved with a
// partition that leaves a page unassigned, decodes equal bit for bit,
// partition included, and re-encodes to the same bytes. A state without
// a partition decodes without one.
func TestStateRoundTrip(t *testing.T) {
	fps := genFormPages(t, 19, 48)
	for _, uniform := range []bool{false, true} {
		m := Build(fps[:40], uniform)
		m.AppendPages(fps[40:])
		m.C1, m.C2, m.Features = 2, 0.5, PCOnly
		res := CAFCC(m, 4, rand.New(rand.NewSource(3)))
		res.Assign[5] = -1

		state := stateOf(t, m, &res)
		got, gotRes, err := DecodeState(state)
		if err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, got, m)
		if gotRes == nil || gotRes.K != res.K || !reflect.DeepEqual(gotRes.Assign, res.Assign) {
			t.Fatalf("uniform=%v: partition differs", uniform)
		}
		for c := range res.Centroids {
			g, w := got.packed(gotRes.Centroids[c]), m.packed(res.Centroids[c])
			if !sameBits(g.pc, w.pc) || !sameBits(g.fc, w.fc) {
				t.Fatalf("uniform=%v: centroid %d bits differ", uniform, c)
			}
		}
		if !bytes.Equal(stateOf(t, got, gotRes), state) {
			t.Fatalf("uniform=%v: re-encoding the decoded state changed its bytes", uniform)
		}

		if _, r, err := DecodeState(stateOf(t, m, nil)); err != nil || r != nil {
			t.Fatalf("uniform=%v: state without a partition decodes with %v (%v)", uniform, r, err)
		}
	}
}

// TestDecodeStateRefusesRecordlessPage: every page has a term record,
// so a state whose page carries record flag 0 fails to decode.
func TestDecodeStateRefusesRecordlessPage(t *testing.T) {
	m := Build(genFormPages(t, 21, 1), false)
	state := stateOf(t, m, nil)
	if _, _, err := DecodeState(state); err != nil {
		t.Fatal(err)
	}
	// The URL is stored once, in the main section, and the record flag
	// is the byte after it.
	url := []byte(m.Pages[0].URL)
	at := bytes.Index(state, url) + len(url)
	if at < len(url) || state[at] != 1 {
		t.Fatalf("no record flag 1 after the URL (at %d)", at)
	}
	state[at] = 0
	if _, _, err := DecodeState(state); err == nil || !strings.Contains(err.Error(), "term record") {
		t.Fatalf("a page with record flag 0 decodes: %v", err)
	}
}

// TestWriteStateRejectsForeignPartition: a partition that does not
// cover the model's pages is refused, not written.
func TestWriteStateRejectsForeignPartition(t *testing.T) {
	m := Build(genFormPages(t, 20, 12), false)
	res := CAFCC(m, 3, rand.New(rand.NewSource(1)))
	res.Assign = res.Assign[:11]
	if err := m.WriteState(io.Discard, &res); err == nil {
		t.Fatal("a partition of 11 pages was written for 12")
	}
	res = cluster.Result{K: 2, Assign: make([]int, 12), Centroids: res.Centroids}
	if err := m.WriteState(io.Discard, &res); err == nil {
		t.Fatal("3 centroids were written for k=2")
	}
}
