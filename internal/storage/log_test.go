package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openTestLog(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func fillLog(t *testing.T, l *Log, n int) [][]byte {
	t.Helper()
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = bytes.Repeat([]byte{byte(i + 1)}, 20+i*7)
		if err := l.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

func checkRecords(t *testing.T, l *Log, want [][]byte) {
	t.Helper()
	if l.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", l.Len(), len(want))
	}
	for i, w := range want {
		got, err := l.Read(i)
		if err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("record %d = %x, want %x", i, got, w)
		}
	}
	if _, err := l.Read(len(want)); err == nil {
		t.Fatal("Read past the end succeeded")
	}
}

func TestLogRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{SegmentBytes: 128})
	recs := fillLog(t, l, 10)
	if l.Segments() < 2 {
		t.Fatalf("expected the 128-byte cap to roll segments, got %d", l.Segments())
	}
	checkRecords(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestLog(t, dir, Options{SegmentBytes: 128})
	checkRecords(t, re, recs)
	if rep := re.Report(); rep.Truncated || rep.Records != len(recs) {
		t.Fatalf("clean reopen reported recovery: %+v", rep)
	}
	// Appends continue at the right height after reopen.
	extra := []byte("post-reopen")
	if err := re.Append(extra); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, re, append(recs, extra))
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".vseg" {
			last = filepath.Join(dir, e.Name())
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	return last
}

func TestLogRecoversFromTruncatedTailRecord(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	recs := fillLog(t, l, 6)
	l.Close()

	// A crash mid-write leaves a torn final record: cut the last
	// segment a few bytes short.
	path := lastSegment(t, dir)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	re := openTestLog(t, dir, Options{})
	checkRecords(t, re, recs[:5])
	rep := re.Report()
	if !rep.Truncated || rep.Records != 5 {
		t.Fatalf("report %+v, want truncated with 5 records", rep)
	}
	// The log must be appendable again at the recovered height.
	if err := re.Append([]byte("replacement")); err != nil {
		t.Fatal(err)
	}
	if re.Len() != 6 {
		t.Fatalf("post-recovery append: Len() = %d, want 6", re.Len())
	}
}

func TestLogRecoversFromFlippedCRCByte(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	recs := fillLog(t, l, 6)
	ref3 := l.recs[3]
	l.Close()

	// Flip one payload byte of record 3: its CRC no longer matches, so
	// recovery must cut back to records 0..2 (later records are
	// unreachable without the corrupt one — chain records are
	// sequential).
	path := lastSegment(t, dir)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], ref3.off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], ref3.off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openTestLog(t, dir, Options{})
	checkRecords(t, re, recs[:3])
	if rep := re.Report(); !rep.Truncated {
		t.Fatalf("report %+v, want truncated", rep)
	}
}

func TestLogRecoversFromPartialFinalSegment(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record gets its own file.
	l := openTestLog(t, dir, Options{SegmentBytes: 16})
	recs := fillLog(t, l, 4)
	if l.Segments() != 4 {
		t.Fatalf("got %d segments, want 4", l.Segments())
	}
	l.Close()

	// A crash during segment creation leaves a final segment with only
	// part of the magic written.
	torn := filepath.Join(dir, segName(4))
	if err := os.WriteFile(torn, logMagic[:3], 0o644); err != nil {
		t.Fatal(err)
	}

	re := openTestLog(t, dir, Options{SegmentBytes: 16})
	checkRecords(t, re, recs)
	rep := re.Report()
	if !rep.Truncated || rep.DroppedSegments != 1 {
		t.Fatalf("report %+v, want 1 dropped segment", rep)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn segment still present: %v", err)
	}
	// A corrupt middle segment additionally drops every later one.
	if err := os.Truncate(filepath.Join(dir, segName(1)), 10); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2 := openTestLog(t, dir, Options{SegmentBytes: 16})
	checkRecords(t, re2, recs[:1])
	if rep := re2.Report(); rep.DroppedSegments != 3 {
		t.Fatalf("report %+v, want 3 dropped segments", rep)
	}
}

// TestReadVerifiesCRC is the flipped-byte regression: a record whose
// payload rots on disk after commit must fail Read with the typed
// ErrCorruptRecord, not come back silently garbled.
func TestReadVerifiesCRC(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	recs := fillLog(t, l, 3)
	checkRecords(t, l, recs)

	// Flip one payload byte of the middle record directly in the file.
	l.mu.RLock()
	ref := l.recs[1]
	path := l.segs[ref.seg].path
	off := ref.off
	l.mu.RUnlock()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off+3); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off+3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := l.Read(1); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("Read of rotted record = %v, want ErrCorruptRecord", err)
	}
	// Neighbors are untouched.
	if got, err := l.Read(0); err != nil || !bytes.Equal(got, recs[0]) {
		t.Fatalf("Read(0) after rot: %v", err)
	}
	if got, err := l.Read(2); err != nil || !bytes.Equal(got, recs[2]) {
		t.Fatalf("Read(2) after rot: %v", err)
	}
}

func TestLogRejectsForeignSegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), []byte("definitely not a log segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("foreign segment accepted")
	}
	// Gapped segment numbering is foreign content too.
	dir2 := t.TempDir()
	l := openTestLog(t, dir2, Options{})
	fillLog(t, l, 1)
	l.Close()
	if err := os.Rename(filepath.Join(dir2, segName(0)), filepath.Join(dir2, segName(3))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir2, Options{}); err == nil {
		t.Fatal("gapped segment numbering accepted")
	}
}

func TestLogTruncate(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{SegmentBytes: 96})
	recs := fillLog(t, l, 8)
	if err := l.Truncate(9); err == nil {
		t.Fatal("truncate beyond Len accepted")
	}
	if err := l.Truncate(3); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, l, recs[:3])
	// Appends resume at the truncation point, and the result survives
	// reopen.
	if err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	re := openTestLog(t, dir, Options{SegmentBytes: 96})
	checkRecords(t, re, append(recs[:3:3], []byte("after")))

	if err := re.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if re.Len() != 0 || re.Segments() != 0 {
		t.Fatalf("truncate to zero left %d records, %d segments", re.Len(), re.Segments())
	}
	if err := re.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, re, [][]byte{[]byte("fresh")})
}

func TestMemoryBackend(t *testing.T) {
	m := NewMemory()
	var want [][]byte
	for i := 0; i < 5; i++ {
		rec := []byte(fmt.Sprintf("rec-%d", i))
		if err := m.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if m.Len() != 5 {
		t.Fatalf("Len() = %d", m.Len())
	}
	for i, w := range want {
		got, err := m.Read(i)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("Read(%d) = %x, %v", i, got, err)
		}
	}
	if _, err := m.Read(5); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if err := m.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("post-truncate Len() = %d", m.Len())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Append([]byte("x")); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func TestLogRejectsOversizedRecord(t *testing.T) {
	l := openTestLog(t, t.TempDir(), Options{MaxRecordBytes: 8})
	if err := l.Append(make([]byte, 9)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if err := l.Append(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestLogSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	fillLog(t, l, 2)
	// A second opener of a live log must be refused: two appenders
	// would overwrite each other's records.
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second concurrent Open succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestLog(t, dir, Options{})
	if re.Len() != 2 {
		t.Fatalf("reopen after close: Len() = %d", re.Len())
	}
}

func TestNullBackend(t *testing.T) {
	n := NewNull()
	if err := n.Append([]byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if n.Len() != 0 {
		t.Fatalf("Null retained %d records", n.Len())
	}
	if _, err := n.Read(0); err == nil {
		t.Fatal("Null read succeeded")
	}
	if err := n.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if err := n.Truncate(1); err == nil {
		t.Fatal("Null truncate past zero succeeded")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}
