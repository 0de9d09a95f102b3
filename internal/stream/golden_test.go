package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden WAL fixture")

// goldenRecords is the fixed record sequence behind the byte-pinned
// fixture: two document batches and a rebuild marker. The HTML is
// hand-written (not generator output) so the fixture only changes when
// the framing or the gob schema of Record changes — which is exactly
// the protocol drift this test exists to catch.
func goldenRecords() []Record {
	return []Record{
		{Docs: []Doc{
			{URL: "http://a.example/q", HTML: `<form action="/s"><input type="text" name="title"/></form>`},
			{URL: "http://b.example/q", HTML: `<form action="/s"><input type="text" name="author"/></form>`},
		}},
		{Docs: []Doc{
			{URL: "http://c.example/q", HTML: `<form action="/find"><input type="text" name="isbn"/></form>`},
		}},
		{}, // rebuild marker
	}
}

const goldenPath = "testdata/wal_golden.log"

// TestGoldenWALFraming pins the replication wire format to the on-disk
// WAL format, byte for byte. The same fixture is checked three ways:
// EncodeFrame output (what replication ships), Store.Append output
// (what the leader writes), and a hand-rolled parse of the spec
// (uvarint payload length, 4-byte little-endian CRC-32C, gob payload)
// — so the stream cannot drift from the log, and neither can drift
// from the documented framing, without this fixture failing.
func TestGoldenWALFraming(t *testing.T) {
	recs := goldenRecords()
	var want bytes.Buffer
	for _, rec := range recs {
		f, err := EncodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(f.Raw)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read fixture (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(golden, want.Bytes()) {
		t.Fatalf("EncodeFrame output drifted from the golden fixture (%d vs %d bytes); the replication wire format changed", want.Len(), len(golden))
	}

	// On-disk framing: Append must write the same bytes the replication
	// stream ships.
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	onDisk, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, golden) {
		t.Fatal("Store.Append bytes differ from the golden fixture: on-disk WAL framing drifted from the replication stream framing")
	}

	// TailWAL must hand back raw frames whose concatenation is the file.
	frames, total, err := TailWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != int64(len(recs)) || len(frames) != len(recs) {
		t.Fatalf("TailWAL = %d frames / %d total, want %d", len(frames), total, len(recs))
	}
	var cat bytes.Buffer
	for _, f := range frames {
		cat.Write(f.Raw)
	}
	if !bytes.Equal(cat.Bytes(), golden) {
		t.Fatal("TailWAL raw frames do not reassemble the golden fixture")
	}

	// Hand-parse against the documented spec, independent of the
	// package's own reader.
	buf := golden
	for i, rec := range recs {
		n, sz := binary.Uvarint(buf)
		if sz <= 0 {
			t.Fatalf("frame %d: bad uvarint length prefix", i)
		}
		buf = buf[sz:]
		crc := binary.LittleEndian.Uint32(buf[:4])
		payload := buf[4 : 4+n]
		if got := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)); got != crc {
			t.Fatalf("frame %d: CRC-32C mismatch", i)
		}
		var got Record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&got); err != nil {
			t.Fatalf("frame %d: gob decode: %v", i, err)
		}
		if len(got.Docs) != len(rec.Docs) {
			t.Fatalf("frame %d: decoded %d docs, want %d", i, len(got.Docs), len(rec.Docs))
		}
		for j := range got.Docs {
			if got.Docs[j] != rec.Docs[j] {
				t.Fatalf("frame %d doc %d: decoded %+v, want %+v", i, j, got.Docs[j], rec.Docs[j])
			}
		}
		buf = buf[4+n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes after the last frame", len(buf))
	}
}

// TestDecodeFramesTornTail pins the torn-tail contract of the wire
// decoder: a body cut anywhere mid-frame yields exactly the intact
// prefix, never an error and never a partial record.
func TestDecodeFramesTornTail(t *testing.T) {
	recs := goldenRecords()
	var full bytes.Buffer
	ends := make([]int, len(recs))
	for i, rec := range recs {
		f, err := EncodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		full.Write(f.Raw)
		ends[i] = full.Len()
	}
	for cut := 0; cut <= full.Len(); cut++ {
		got := DecodeFrames(full.Bytes()[:cut])
		wantN := 0
		for _, end := range ends {
			if cut >= end {
				wantN++
			}
		}
		if len(got) != wantN {
			t.Fatalf("cut at %d: decoded %d frames, want %d", cut, len(got), wantN)
		}
	}

	// A flipped byte inside a frame must also stop the scan at the
	// preceding frame boundary.
	corrupt := append([]byte(nil), full.Bytes()...)
	corrupt[ends[0]+7] ^= 0xff
	if got := DecodeFrames(corrupt); len(got) != 1 {
		t.Fatalf("corrupt second frame: decoded %d frames, want 1", len(got))
	}
}

// TestStoreTornTailEveryCut carries TestDecodeFramesTornTail's contract
// to the on-disk path: the golden log cut at any byte opens to exactly
// the whole frames before the cut, and a record appended after the
// reopen is seen by every reader. A group-committing leader writes the
// same bytes, so each cut stands for its crash points too.
func TestStoreTornTailEveryCut(t *testing.T) {
	full, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	end := 0
	for _, f := range DecodeFrames(full) {
		end += len(f.Raw)
		ends = append(ends, end)
	}
	if end != len(full) {
		t.Fatalf("golden log decodes to %d of its %d bytes", end, len(full))
	}
	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		whole := 0
		for _, e := range ends {
			if cut >= e {
				whole++
			}
		}
		if n := s.RecordCount(); n != int64(whole) {
			t.Fatalf("cut at %d: RecordCount = %d, want %d", cut, n, whole)
		}
		appendAfterDamage(t, s, whole)
		s.Close()
		if t.Failed() {
			t.Fatalf("append after a cut at %d failed", cut)
		}
	}
}
