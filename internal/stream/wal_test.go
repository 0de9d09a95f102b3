package stream

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func rec(urls ...string) Record {
	var r Record
	for _, u := range urls {
		r.Docs = append(r.Docs, Doc{URL: u, HTML: "<form action=q><input name=title></form>"})
	}
	return r
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{rec("http://a/"), rec("http://b/", "http://c/"), {}}
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.RecordCount(); n != 3 {
		t.Errorf("RecordCount = %d, want 3", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the records survive the process boundary, and the rebuild
	// marker round-trips as an empty record.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Records = %+v, want %+v", got, want)
	}
	if !got[2].IsRebuild() {
		t.Errorf("empty record should be a rebuild marker")
	}
	if s2.RecordCount() != 3 {
		t.Errorf("reopened RecordCount = %d", s2.RecordCount())
	}
}

func TestStoreTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("http://a/")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("http://b/")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: a frame header promising more bytes
	// than the file holds.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x01, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("torn tail: got %d records, want the 2 intact ones", len(got))
	}
	appendAfterDamage(t, s2, 2)
}

// appendAfterDamage appends one record to a store reopened over a
// damaged WAL with `intact` good records, and checks that every view
// sees it: the store's count, the replication read and a fresh Open.
// The damaged bytes must be cut off first, or the new frame would sit
// behind them where no scan reaches it.
func appendAfterDamage(t *testing.T, s *Store, intact int) {
	t.Helper()
	next := rec("http://after-reopen/")
	if err := s.Append(next); err != nil {
		t.Fatal(err)
	}
	want := int64(intact + 1)
	if n := s.RecordCount(); n != want {
		t.Errorf("RecordCount after append = %d, want %d", n, want)
	}
	frames, total, err := TailWAL(s.Dir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != want || len(frames) != int(want) || !reflect.DeepEqual(frames[intact].Rec, next) {
		t.Errorf("TailWAL after append: %d frames of %d, want %d ending in the appended record", len(frames), total, want)
	}
	s3, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	got, err := s3.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != int(want) || !reflect.DeepEqual(got[intact], next) || s3.RecordCount() != want {
		t.Errorf("reopen after append: %d records (RecordCount %d), want %d ending in the appended record",
			len(got), s3.RecordCount(), want)
	}
}

func TestStoreCorruptFrameStopsScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("http://a/")); err != nil {
		t.Fatal(err)
	}
	end, _ := os.Stat(filepath.Join(dir, walName))
	if err := s.Append(rec("http://b/")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip a payload byte of the second frame: the CRC must reject it and
	// the scan must stop at the last good record instead of decoding junk.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, end.Size()+8); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, end.Size()+8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Docs[0].URL != "http://a/" {
		t.Fatalf("corrupt frame: got %d records, want 1 intact prefix", len(got))
	}
	appendAfterDamage(t, s2, 1)
}

func TestSnapshotAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.OpenSnapshot(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("OpenSnapshot on empty store: %v, want ErrNoSnapshot", err)
	}
	for _, payload := range []string{"first", "second"} {
		p := payload
		if err := s.WriteSnapshot(func(w io.Writer) error {
			_, err := io.WriteString(w, p)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		rc, err := s.OpenSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(rc)
		rc.Close()
		if string(got) != p {
			t.Errorf("snapshot = %q, want %q", got, p)
		}
	}
	// A failed write leaves the previous snapshot intact.
	if err := s.WriteSnapshot(func(w io.Writer) error {
		io.WriteString(w, "garbage")
		return errors.New("boom")
	}); err == nil {
		t.Fatal("want error from failing snapshot fn")
	}
	rc, err := s.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if string(got) != "second" {
		t.Errorf("failed snapshot clobbered the good one: %q", got)
	}
	if HasState(dir) != true {
		t.Errorf("HasState should see the snapshot")
	}
	if HasState(t.TempDir()) {
		t.Errorf("HasState on empty dir")
	}
}
