package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Log is the durable backend: one append-only file of records in its
// directory.
//
// On-disk format (all integers big-endian):
//
//	log file 00000000.vseg:  magic ‖ record*
//	magic:   8 bytes "VCHLOG01"
//	record:  [4-byte payload length][4-byte CRC32-C of payload][payload]
//
// Append writes the framed record and fsyncs the file before
// returning, so a record is durable exactly when its commit succeeds.
// Open rebuilds the in-RAM offset index by scanning the file; the
// first torn or corrupt record ends the scan and the file is truncated
// at the last valid record — a crash mid-append can only ever cost the
// record being written.
type Log struct {
	mu     sync.RWMutex
	dirF   *os.File
	f      *os.File
	size   int64
	opts   Options
	recs   []recordRef
	report Report
	closed bool
}

// Options tune a Log. The zero value is a production configuration.
type Options struct {
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
	// Sync, when non-nil, is consulted in place of each record
	// append's fsync: returning an error surfaces it as the fsync
	// failure and skips the real sync; returning nil performs the real
	// fsync.
	Sync func() error
	// Write, when non-nil, is consulted before each record frame
	// write. Returning (n, err) with err != nil tears the write: only
	// frame[:n] reaches the file and Append fails with err — exactly
	// what a crash mid-write leaves behind. Returning (_, nil) lets
	// the write through untouched.
	Write func(frame []byte) (int, error)
}

func (o Options) withDefaults() Options {
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
	// DroppedBytes counts bytes discarded by recovery.
	DroppedBytes int64
}

// logName is the log file's name. Builds that split a log into 64 MiB
// segments named their first segment the same, so a log that never
// rolled over is this file byte for byte.
const logName = "00000000.vseg"

var logMagic = [8]byte{'V', 'C', 'H', 'L', 'O', 'G', '0', '1'}

const recHeaderLen = 8 // 4-byte length + 4-byte CRC

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recordRef locates record i: the payload offset, the payload length,
// and the payload's CRC32-C — kept in RAM so every read is verified
// against the checksum computed when the record was written.
type recordRef struct {
	off int64
	n   int
	sum uint32
}

// Open opens (or creates) the log in dir, scanning the file to rebuild
// the offset index and recovering from a torn tail by truncating to
// the last valid record.
func Open(dir string, opts Options) (*Log, error) {
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
	l := &Log{dirF: dirF, opts: opts.withDefaults()}
	if err := l.open(dir); err != nil {
		l.Close()
		return nil, err
	}
	l.report.Records = len(l.recs)
	return l, nil
}

// open opens the log file, refusing a directory that still holds the
// later segments of a log an older build rolled over.
func (l *Log) open(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("storage: reading log dir: %w", err)
	}
	var later []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".vseg" && e.Name() != logName {
			later = append(later, e.Name())
		}
	}
	if len(later) > 0 {
		return fmt.Errorf("storage: %s holds a log an older build rolled over into segments, and a log is now one file, %s; "+
			"append each later segment to it in order, without its 8-byte magic: "+
			"cd %s && for s in %s; do tail -c +9 \"$s\" >> %s && rm \"$s\"; done",
			dir, logName, dir, strings.Join(later, " "), logName)
	}
	path := filepath.Join(dir, logName)
	if l.f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return fmt.Errorf("storage: opening log file: %w", err)
	}
	st, err := l.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < int64(len(logMagic)) {
		return l.create(st.Size())
	}
	var magic [8]byte
	if _, err := l.f.ReadAt(magic[:], 0); err != nil {
		// A real I/O error is not crash damage — failing the open must
		// never destroy records a retry could still read.
		return fmt.Errorf("storage: reading %s magic: %w", path, err)
	}
	if magic != logMagic {
		// A full, wrong magic is a foreign file, not a torn write:
		// refuse to touch it.
		return fmt.Errorf("storage: %s is not a vchain block log", path)
	}
	return l.scan(st.Size())
}

// create writes the magic into a file too short to hold it: a fresh
// file, or a torn creation in which nothing can be valid. The file and
// its directory entry are fsynced before the first append.
func (l *Log) create(size int64) error {
	if size > 0 {
		l.report.Truncated = true
		l.report.DroppedBytes = size
	}
	if _, err := l.f.WriteAt(logMagic[:], 0); err != nil {
		return fmt.Errorf("storage: writing log magic: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.dirF.Sync(); err != nil {
		return fmt.Errorf("storage: syncing log dir: %w", err)
	}
	l.size = int64(len(logMagic))
	return nil
}

// scan validates the records of a size-byte file and indexes them. The
// first torn or corrupt record ends the scan, and the file is cut back
// to the last valid record and fsynced.
func (l *Log) scan(size int64) error {
	off := int64(len(logMagic))
	var hdr [recHeaderLen]byte
	var payload []byte
	for size-off >= recHeaderLen {
		if _, err := l.f.ReadAt(hdr[:], off); err != nil {
			return fmt.Errorf("storage: reading log: %w", err)
		}
		n := int(binary.BigEndian.Uint32(hdr[:4]))
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n > l.opts.MaxRecordBytes || int64(n) > size-off-recHeaderLen {
			break
		}
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := l.f.ReadAt(payload, off+recHeaderLen); err != nil {
			return fmt.Errorf("storage: reading log: %w", err)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			break
		}
		l.recs = append(l.recs, recordRef{off: off + recHeaderLen, n: n, sum: sum})
		off += recHeaderLen + int64(n)
	}
	l.size = off
	if off == size {
		return nil
	}
	l.report.Truncated = true
	l.report.DroppedBytes = size - off
	if err := l.f.Truncate(off); err != nil {
		return fmt.Errorf("storage: truncating torn tail: %w", err)
	}
	return l.f.Sync()
}

// Report returns what recovery found when the log was opened.
func (l *Log) Report() Report {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.report
}

// Len implements Backend.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.recs)
}

// Append implements Backend: it frames data, writes it at the end of
// the file, and fsyncs before returning.
func (l *Log) Append(data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("storage: log closed")
	}
	if len(data) > l.opts.MaxRecordBytes {
		return fmt.Errorf("storage: record of %d bytes exceeds the %d-byte cap", len(data), l.opts.MaxRecordBytes)
	}
	sum := crc32.Checksum(data, crcTable)
	frame := make([]byte, recHeaderLen+len(data))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(data)))
	binary.BigEndian.PutUint32(frame[4:8], sum)
	copy(frame[recHeaderLen:], data)
	h := l.opts.Hooks
	if h != nil && h.Write != nil {
		if n, werr := h.Write(frame); werr != nil {
			// Injected torn write: land only the prefix, exactly as a
			// crash mid-write would, then fail the append. The record is
			// not indexed; reopen recovers via truncate-to-last-valid.
			n = min(max(n, 0), len(frame))
			if _, err := l.f.WriteAt(frame[:n], l.size); err != nil {
				return fmt.Errorf("storage: appending record: %w", err)
			}
			return fmt.Errorf("storage: appending record: %w", werr)
		}
	}
	if _, err := l.f.WriteAt(frame, l.size); err != nil {
		return fmt.Errorf("storage: appending record: %w", err)
	}
	if h != nil && h.Sync != nil {
		if err := h.Sync(); err != nil {
			return fmt.Errorf("storage: syncing log: %w", err)
		}
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("storage: syncing log: %w", err)
	}
	l.recs = append(l.recs, recordRef{off: l.size + recHeaderLen, n: len(data), sum: sum})
	l.size += int64(len(frame))
	return nil
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
	if _, err := l.f.ReadAt(out, ref.off); err != nil {
		return nil, fmt.Errorf("storage: reading record %d: %w", i, err)
	}
	if crc32.Checksum(out, crcTable) != ref.sum {
		return nil, fmt.Errorf("%w: record %d fails its CRC32-C", ErrCorruptRecord, i)
	}
	return out, nil
}

// Truncate implements Backend: it cuts the file back to the start of
// record n and fsyncs it.
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
	cut := l.recs[n].off - recHeaderLen
	if err := l.f.Truncate(cut); err != nil {
		return fmt.Errorf("storage: truncating log: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size = cut
	l.recs = l.recs[:n]
	return nil
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
	if l.f != nil {
		first = l.f.Close()
	}
	if err := l.dirF.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
