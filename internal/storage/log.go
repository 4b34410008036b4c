package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Log is the durable backend: an append-only log of records split
// across fixed-size segment files in one directory.
//
// On-disk format (all integers big-endian):
//
//	segment file  NNNNNNNN.vseg:  magic ‖ record*
//	magic:   8 bytes "VCHLOG01"
//	record:  [4-byte payload length][4-byte CRC32-C of payload][payload]
//
// Append writes the framed record and fsyncs the segment before
// returning, so a record is durable exactly
// when its commit succeeds. Open rebuilds the in-RAM offset index by
// scanning every segment; the first torn or corrupt record ends the
// scan, the containing segment is truncated at the last valid record,
// and any later segments are discarded — a crash mid-append can only
// ever cost the record being written.
type Log struct {
	mu     sync.RWMutex
	dir    string
	dirF   *os.File
	opts   Options
	segs   []*segment
	recs   []recordRef
	report Report
	closed bool
}

// Options tune a Log. The zero value is a production configuration.
type Options struct {
	// SegmentBytes caps a segment file's size; a record that would
	// overflow the active segment starts a new one. Default 64 MiB.
	// Small values (tests) force frequent rollover.
	SegmentBytes int64
	// MaxRecordBytes bounds a single record. Oversized appends are
	// rejected, and a scanned length field beyond the bound is treated
	// as corruption. Default 1 GiB.
	MaxRecordBytes int
	// Hooks inject faults into the log's file I/O (fsync failures,
	// torn frame writes). Nil — the production configuration — injects
	// nothing. Tests and chaos drills (internal/fault) use them to
	// exercise the recovery paths deterministically.
	Hooks *Hooks
}

// Hooks intercept the log's file I/O for fault injection. Each hook is
// consulted on the append path only; recovery and truncation always
// run against the real file so an injected fault never cascades into
// destroying valid records.
type Hooks struct {
	// Sync, when non-nil, is consulted in place of each append-path
	// fsync (record appends and new-segment creation): returning an
	// error surfaces it as the fsync failure and skips the real sync;
	// returning nil performs the real fsync.
	Sync func() error
	// Write, when non-nil, is consulted before each record frame
	// write. Returning (n, err) with err != nil tears the write: only
	// frame[:n] reaches the file and Append fails with err — exactly
	// what a crash mid-write leaves behind. Returning (_, nil) lets
	// the write through untouched.
	Write func(frame []byte) (int, error)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 1 << 30
	}
	return o
}

// Report describes what recovery found while opening a log.
type Report struct {
	// Records is the number of valid records indexed.
	Records int
	// Truncated reports whether recovery discarded a torn or corrupt
	// tail.
	Truncated bool
	// DroppedBytes counts bytes discarded by recovery (including whole
	// later segments).
	DroppedBytes int64
	// DroppedSegments counts later segment files removed by recovery.
	DroppedSegments int
}

var logMagic = [8]byte{'V', 'C', 'H', 'L', 'O', 'G', '0', '1'}

const recHeaderLen = 8 // 4-byte length + 4-byte CRC

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segment is one on-disk segment file, kept open read-write.
type segment struct {
	id   int
	path string
	f    *os.File
	size int64
}

// recordRef locates record i: the segment (index into Log.segs), the
// payload offset, the payload length, and the payload's CRC32-C —
// kept in RAM so every read is verified against the
// checksum computed when the record was written.
type recordRef struct {
	seg int
	off int64
	n   int
	sum uint32
}

func segName(id int) string { return fmt.Sprintf("%08d.vseg", id) }

// Open opens (or creates) the segmented log in dir, scanning every
// segment to rebuild the offset index and recovering from a torn tail
// by truncating to the last valid record.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating log dir: %w", err)
	}
	dirF, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: opening log dir: %w", err)
	}
	// Exactly one process may hold a log open: a second appender would
	// overwrite acknowledged records. The flock dies with the process,
	// so a crashed owner never wedges the store.
	if err := lockDir(dirF); err != nil {
		dirF.Close()
		return nil, err
	}
	l := &Log{dir: dir, dirF: dirF, opts: opts}

	names, err := listSegments(dir)
	if err != nil {
		dirF.Close()
		return nil, err
	}
	for id, name := range names {
		ok, err := l.scanSegment(name)
		if err != nil {
			l.Close()
			return nil, err
		}
		if ok {
			continue
		}
		// Recovery point: everything after the invalid record is
		// unreachable (chain records are sequential), so later segments
		// are dropped too.
		for _, later := range names[id+1:] {
			p := filepath.Join(dir, later)
			if st, err := os.Stat(p); err == nil {
				l.report.DroppedBytes += st.Size()
			}
			if err := os.Remove(p); err != nil {
				l.Close()
				return nil, fmt.Errorf("storage: dropping segment after corruption: %w", err)
			}
			l.report.DroppedSegments++
		}
		if err := l.syncDir(); err != nil {
			l.Close()
			return nil, err
		}
		break
	}
	l.report.Records = len(l.recs)
	return l, nil
}

// listSegments returns the segment file names in id order, rejecting
// foreign files and gapped numbering: ids must run 0..n-1, and a
// segment beyond a hole means the directory is not ours to repair.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: reading log dir: %w", err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".vseg" {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(e.Name(), "%08d.vseg", &id); err != nil || segName(id) != e.Name() {
			return nil, fmt.Errorf("storage: unexpected file %q in log dir", e.Name())
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for id, name := range names {
		if name != segName(id) {
			return nil, fmt.Errorf("storage: unexpected segment %q (want %s)", name, segName(id))
		}
	}
	return names, nil
}

// scanSegment opens one segment, validates its records, and appends
// them to the index. It returns false when the segment ended at a torn
// or corrupt record (after truncating it to the last valid one); the
// caller must then discard all later segments.
func (l *Log) scanSegment(name string) (bool, error) {
	path := filepath.Join(l.dir, name)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return false, fmt.Errorf("storage: opening segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return false, err
	}
	size := st.Size()

	var magic [8]byte
	_, err = f.ReadAt(magic[:], 0)
	switch {
	case err == nil && magic == logMagic:
		// Healthy segment: fall through to the record scan.
	case err == nil:
		// A full, wrong magic is a foreign file, not a torn write:
		// refuse to touch the directory.
		f.Close()
		return false, fmt.Errorf("storage: %s is not a vchain log segment", name)
	case errors.Is(err, io.EOF):
		// Short file: torn segment creation, nothing in it can be
		// valid.
		return false, l.truncateSegment(f, path, st, 0, size)
	default:
		// A real I/O error is not crash damage — failing the open must
		// never destroy records a retry could still read.
		f.Close()
		return false, fmt.Errorf("storage: reading %s magic: %w", name, err)
	}

	seg := &segment{id: len(l.segs), path: path, f: f, size: size}
	off := int64(len(logMagic))
	var hdr [recHeaderLen]byte
	for off < size {
		if size-off < recHeaderLen {
			return false, l.truncateSegment(f, path, st, off, size)
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			f.Close()
			return false, fmt.Errorf("storage: reading %s: %w", name, err)
		}
		n := int(binary.BigEndian.Uint32(hdr[:4]))
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n > l.opts.MaxRecordBytes || int64(n) > size-off-recHeaderLen {
			return false, l.truncateSegment(f, path, st, off, size)
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, off+recHeaderLen); err != nil {
			f.Close()
			return false, fmt.Errorf("storage: reading %s: %w", name, err)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return false, l.truncateSegment(f, path, st, off, size)
		}
		l.recs = append(l.recs, recordRef{seg: seg.id, off: off + recHeaderLen, n: n, sum: sum})
		off += recHeaderLen + int64(n)
	}
	l.segs = append(l.segs, seg)
	return true, nil
}

// truncateSegment cuts f back to the last valid record at off. A
// segment left without any record (off ≤ magic) is removed entirely;
// otherwise it joins the index truncated. Either way the result is
// fsynced before recovery continues.
func (l *Log) truncateSegment(f *os.File, path string, st os.FileInfo, off, size int64) error {
	l.report.Truncated = true
	l.report.DroppedBytes += size - off
	if off <= int64(len(logMagic)) {
		f.Close()
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("storage: removing torn segment: %w", err)
		}
		l.report.DroppedBytes += off
		l.report.DroppedSegments++
		return l.syncDir()
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return fmt.Errorf("storage: truncating torn segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	l.segs = append(l.segs, &segment{id: len(l.segs), path: path, f: f, size: off})
	return nil
}

// syncSeg fsyncs a segment file on the append path, consulting the
// Sync hook first: a hook error surfaces as the fsync failure.
func (l *Log) syncSeg(f *os.File) error {
	if h := l.opts.Hooks; h != nil && h.Sync != nil {
		if err := h.Sync(); err != nil {
			return err
		}
	}
	return f.Sync()
}

func (l *Log) syncDir() error {
	if err := l.dirF.Sync(); err != nil {
		return fmt.Errorf("storage: syncing log dir: %w", err)
	}
	return nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Report returns what recovery found when the log was opened.
func (l *Log) Report() Report {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.report
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.segs)
}

// Len implements Backend.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.recs)
}

// Append implements Backend: it frames data, writes it to the active
// segment (rolling to a new one at the size cap), and fsyncs before
// returning.
func (l *Log) Append(data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("storage: log closed")
	}
	if len(data) > l.opts.MaxRecordBytes {
		return fmt.Errorf("storage: record of %d bytes exceeds the %d-byte cap", len(data), l.opts.MaxRecordBytes)
	}
	recLen := int64(recHeaderLen + len(data))
	seg := l.activeSegment()
	if seg == nil || (seg.size+recLen > l.opts.SegmentBytes && seg.size > int64(len(logMagic))) {
		var err error
		if seg, err = l.newSegment(); err != nil {
			return err
		}
	}
	sum := crc32.Checksum(data, crcTable)
	frame := make([]byte, recHeaderLen+len(data))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(data)))
	binary.BigEndian.PutUint32(frame[4:8], sum)
	copy(frame[recHeaderLen:], data)
	if h := l.opts.Hooks; h != nil && h.Write != nil {
		if n, werr := h.Write(frame); werr != nil {
			// Injected torn write: land only the prefix, exactly as a
			// crash mid-write would, then fail the append. The record is
			// not indexed; reopen recovers via truncate-to-last-valid.
			if n < 0 {
				n = 0
			} else if n > len(frame) {
				n = len(frame)
			}
			if n > 0 {
				if _, err := seg.f.WriteAt(frame[:n], seg.size); err != nil {
					return fmt.Errorf("storage: appending record: %w", err)
				}
			}
			return fmt.Errorf("storage: appending record: %w", werr)
		}
	}
	if _, err := seg.f.WriteAt(frame, seg.size); err != nil {
		return fmt.Errorf("storage: appending record: %w", err)
	}
	if err := l.syncSeg(seg.f); err != nil {
		return fmt.Errorf("storage: syncing segment: %w", err)
	}
	l.recs = append(l.recs, recordRef{seg: seg.id, off: seg.size + recHeaderLen, n: len(data), sum: sum})
	seg.size += recLen
	return nil
}

func (l *Log) activeSegment() *segment {
	if len(l.segs) == 0 {
		return nil
	}
	return l.segs[len(l.segs)-1]
}

// newSegment creates, syncs, and registers the next segment file.
func (l *Log) newSegment() (*segment, error) {
	id := len(l.segs)
	path := filepath.Join(l.dir, segName(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: creating segment: %w", err)
	}
	if _, err := f.WriteAt(logMagic[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: writing segment magic: %w", err)
	}
	if err := l.syncSeg(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := l.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	seg := &segment{id: id, path: path, f: f, size: int64(len(logMagic))}
	l.segs = append(l.segs, seg)
	return seg, nil
}

// Read implements Backend. Every read verifies the payload against the
// CRC32-C recorded at write time, so bit-rot surfaces as a typed
// ErrCorruptRecord at page-in instead of a garbled decode downstream.
func (l *Log) Read(i int) ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return nil, errors.New("storage: log closed")
	}
	if i < 0 || i >= len(l.recs) {
		return nil, fmt.Errorf("%w: %d of %d", ErrOutOfRange, i, len(l.recs))
	}
	ref := l.recs[i]
	out := make([]byte, ref.n)
	if _, err := l.segs[ref.seg].f.ReadAt(out, ref.off); err != nil {
		return nil, fmt.Errorf("storage: reading record %d: %w", i, err)
	}
	if crc32.Checksum(out, crcTable) != ref.sum {
		return nil, fmt.Errorf("%w: record %d fails its CRC32-C", ErrCorruptRecord, i)
	}
	return out, nil
}

// Truncate implements Backend: it discards records n.., removing
// now-empty segments and cutting the segment containing the boundary.
func (l *Log) Truncate(n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("storage: log closed")
	}
	if n < 0 || n > len(l.recs) {
		return fmt.Errorf("%w: truncate to %d of %d", ErrOutOfRange, n, len(l.recs))
	}
	if n == len(l.recs) {
		return nil
	}
	boundary := l.recs[n]
	keepSegs := boundary.seg
	cut := boundary.off - recHeaderLen
	if cut > int64(len(logMagic)) {
		// The boundary segment keeps its earlier records.
		keepSegs++
		seg := l.segs[boundary.seg]
		if err := seg.f.Truncate(cut); err != nil {
			return fmt.Errorf("storage: truncating segment: %w", err)
		}
		if err := seg.f.Sync(); err != nil {
			return err
		}
		seg.size = cut
	}
	for _, seg := range l.segs[keepSegs:] {
		seg.f.Close()
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("storage: removing truncated segment: %w", err)
		}
	}
	l.segs = l.segs[:keepSegs]
	l.recs = l.recs[:n]
	return l.syncDir()
}

// Close implements Backend.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	for _, seg := range l.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := l.dirF.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
