package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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

// testRecords returns the n records fillLog appends, which are also
// the records of the logs under testdata.
func testRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = bytes.Repeat([]byte{byte(i + 1)}, 20+i*7)
	}
	return recs
}

func fillLog(t *testing.T, l *Log, n int) [][]byte {
	t.Helper()
	recs := testRecords(n)
	for i := range recs {
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
	l := openTestLog(t, dir, Options{})
	recs := fillLog(t, l, 10)
	checkRecords(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestLog(t, dir, Options{})
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

// logPath returns the path of the log file in dir.
func logPath(dir string) string { return filepath.Join(dir, logName) }

func TestLogRecoversFromTruncatedTailRecord(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	recs := fillLog(t, l, 6)
	l.Close()

	// A crash mid-write leaves a torn final record: cut the file a few
	// bytes short.
	path := logPath(dir)
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
	path := logPath(dir)
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

// TestLogRecoversFromTornCreation: a crash while the log file is being
// created leaves it shorter than its magic. Nothing in it can be
// valid, so Open rewrites the magic, reports the torn bytes, and the
// log takes appends that survive a reopen.
func TestLogRecoversFromTornCreation(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(logPath(dir), logMagic[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	l := openTestLog(t, dir, Options{})
	checkRecords(t, l, nil)
	if rep := l.Report(); !rep.Truncated || rep.DroppedBytes != 3 {
		t.Fatalf("report %+v, want 3 truncated bytes", rep)
	}
	if got, err := os.ReadFile(logPath(dir)); err != nil || !bytes.Equal(got, logMagic[:]) {
		t.Fatalf("recovered file = %q, %v; want the magic alone", got, err)
	}
	recs := fillLog(t, l, 3)
	l.Close()
	re := openTestLog(t, dir, Options{})
	checkRecords(t, re, recs)
	if rep := re.Report(); rep.Truncated {
		t.Fatalf("clean reopen reported recovery: %+v", rep)
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
	path := logPath(dir)
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
	if err := os.WriteFile(logPath(dir), []byte("definitely not a log segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("foreign segment accepted")
	}
	// A second segment file is refused: a log is one file.
	dir2 := t.TempDir()
	l := openTestLog(t, dir2, Options{})
	fillLog(t, l, 1)
	l.Close()
	if err := os.WriteFile(filepath.Join(dir2, "00000001.vseg"), logMagic[:], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir2, Options{}); err == nil {
		t.Fatal("second segment file accepted")
	}
}

func TestLogTruncate(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
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
	re := openTestLog(t, dir, Options{})
	checkRecords(t, re, append(recs[:3:3], []byte("after")))

	if err := re.Truncate(0); err != nil {
		t.Fatal(err)
	}
	// Rollback to zero leaves the magic alone in the file.
	st, err := os.Stat(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 0 || st.Size() != int64(len(logMagic)) {
		t.Fatalf("truncate to zero left %d records in a %d-byte file", re.Len(), st.Size())
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

// copyFixture copies the log directory testdata/name into a temp dir.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	ents, err := os.ReadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join("testdata", name, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestOpenParentLog opens logs written by the build that split a log
// into segment files: testdata/parent-one never rolled over, and
// testdata/parent-rolled rolled into nine segments at a 128-byte cap.
// Both hold testRecords.
func TestOpenParentLog(t *testing.T) {
	t.Run("one segment", func(t *testing.T) {
		dir := copyFixture(t, "parent-one")
		before, err := os.ReadFile(logPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		l := openTestLog(t, dir, Options{})
		checkRecords(t, l, testRecords(5))
		if rep := l.Report(); rep != (Report{Records: 5}) {
			t.Fatalf("report %+v, want a clean open of 5 records", rep)
		}
		l.Close()
		if after, err := os.ReadFile(logPath(dir)); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("opening changed the file: %v", err)
		}
	})
	t.Run("rolled over", func(t *testing.T) {
		dir := copyFixture(t, "parent-rolled")
		_, err := Open(dir, Options{})
		if err == nil || !strings.Contains(err.Error(), "tail -c +9") {
			t.Fatalf("rolled-over log: Open error %v, want the tail -c +9 fix", err)
		}
		for _, tool := range []string{"sh", "tail"} {
			if _, err := exec.LookPath(tool); err != nil {
				t.Skipf("no %s to apply the fix: %v", tool, err)
			}
		}
		// Apply the fix exactly as the error spells it.
		msg := err.Error()
		fix := msg[strings.LastIndex(msg, ": ")+2:]
		if out, err := exec.Command("sh", "-c", fix).CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", fix, err, out)
		}
		l := openTestLog(t, dir, Options{})
		checkRecords(t, l, testRecords(12))
		if rep := l.Report(); rep != (Report{Records: 12}) {
			t.Fatalf("report %+v, want a clean open of 12 records", rep)
		}
	})
}

// validPrefix parses file as a log independently of Open: the records
// of its longest valid framed prefix, and where that prefix ends.
func validPrefix(file []byte, maxRecord int) ([][]byte, int) {
	var recs [][]byte
	off := len(logMagic)
	for len(file)-off >= recHeaderLen {
		n := int(binary.BigEndian.Uint32(file[off:]))
		sum := binary.BigEndian.Uint32(file[off+4:])
		if n > maxRecord || n > len(file)-off-recHeaderLen {
			break
		}
		payload := file[off+recHeaderLen : off+recHeaderLen+n]
		if crc32.Checksum(payload, crcTable) != sum {
			break
		}
		recs = append(recs, payload)
		off += recHeaderLen + n
	}
	return recs, off
}

// FuzzLogOpen opens arbitrary bytes as the log file, whole or behind a
// valid magic. Open must not panic; a file with a foreign magic is
// refused; any other opens with exactly its longest valid framed
// prefix, reports every byte it cut, and takes an append that a reopen
// returns with every record.
func FuzzLogOpen(f *testing.F) {
	opts := Options{MaxRecordBytes: 64}
	dir := f.TempDir()
	l, err := Open(dir, opts)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range testRecords(3) {
		if err := l.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	whole, err := os.ReadFile(logPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	body := whole[len(logMagic):]
	oversized := make([]byte, recHeaderLen+65)
	binary.BigEndian.PutUint32(oversized, 65)
	binary.BigEndian.PutUint32(oversized[4:], crc32.Checksum(oversized[recHeaderLen:], crcTable))
	flipped := bytes.Clone(body)
	flipped[5] ^= 0x01 // a byte of the first record's CRC
	f.Add(whole, false)
	f.Add(body, true)
	f.Add(append(bytes.Clone(body), body[:5]...), true) // torn header
	f.Add(oversized, true)
	f.Add(flipped, true)
	f.Add(logMagic[:5], false)

	f.Fuzz(func(t *testing.T, data []byte, withMagic bool) {
		file := data
		if withMagic {
			file = append(logMagic[:len(logMagic):len(logMagic)], data...)
		}
		dir := t.TempDir()
		if err := os.WriteFile(logPath(dir), file, 0o644); err != nil {
			t.Fatal(err)
		}
		want, end := [][]byte(nil), len(logMagic)
		if len(file) >= len(logMagic) {
			if !bytes.Equal(file[:len(logMagic)], logMagic[:]) {
				if l, err := Open(dir, opts); err == nil {
					l.Close()
					t.Fatal("a file with a foreign magic opened")
				}
				return
			}
			want, end = validPrefix(file, opts.MaxRecordBytes)
		}
		l, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		checkRecords(t, l, want)
		cut := int64(len(file) - end)
		if len(file) < len(logMagic) {
			cut = int64(len(file))
		}
		if rep := l.Report(); rep != (Report{Records: len(want), Truncated: cut > 0, DroppedBytes: cut}) {
			t.Fatalf("report %+v, want %d records and %d bytes cut", rep, len(want), cut)
		}
		if err := l.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		re, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		checkRecords(t, re, append(want, []byte("appended")))
	})
}
