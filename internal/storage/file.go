package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// On-disk layout inside the store directory (see docs/PERSISTENCE.md):
//
//	wal-<firstSeq:016x>.wal   WAL segments, named by their first record's seq
//	snap-<seq:016x>.snap      snapshots, named by the log position they cover
//
// A WAL segment starts with an 8-byte header — magic "PMWAL\x00" + u16
// little-endian format version — followed by records framed as
// [u32 payloadLen][u32 CRC32-IEEE(payload)][payload]. A snapshot file is
// a 24-byte header — magic "PMSNAP" + u16 version + u64 seq +
// u32 bodyLen + u32 CRC32-IEEE(body) — followed by the body.
//
// Appends never reopen an old segment: after a restart the next append
// starts a fresh segment, so a torn record at a pre-crash segment's tail
// stays physically last in its file and replay can tell honest
// crash-truncation (tolerated) from interior damage (ErrCorrupt, caught
// by the cross-segment sequence-continuity check).

const (
	walMagic  = "PMWAL\x00"
	snapMagic = "PMSNAP"

	walHeaderLen  = 8  // magic(6) + version(2)
	recFrameLen   = 8  // payloadLen(4) + crc(4)
	snapHeaderLen = 24 // magic(6) + version(2) + seq(8) + bodyLen(4) + crc(4)

	// maxRecordLen bounds a single record payload; a length field above
	// it is treated as tear/corruption rather than attempted.
	maxRecordLen = 64 << 20

	// DefaultSegmentBytes is the size at which Append rolls to a new
	// WAL segment.
	DefaultSegmentBytes = 4 << 20

	// maxAppendBuf is the largest frame buffer Append keeps for the next
	// call: one bulk append must not pin its bytes.
	maxAppendBuf = 1 << 20

	// keepSnapshots is how many snapshot generations Prune retains; the
	// WAL is pruned only below the oldest retained one, so losing the
	// newest snapshot still leaves a recoverable older snapshot + tail.
	keepSnapshots = 2
)

// FileStore is the file-backed Store. Mutating methods — Append,
// WriteSnapshot, Prune, Close — are single-writer (the Monitor holds
// its write lock around them); the read-only methods Replay and
// LoadSnapshot are stateless file scans that may run concurrently with
// each other (the changefeed serves many /wal streams under the
// monitor's read lock) but never with the mutators. Any future mutable
// read-path state (segment caches, cursors) must add its own
// synchronization. An internal mutex guards the append-side state for
// Stats readers.
type FileStore struct {
	dir string
	// SegmentBytes is the roll threshold for WAL segments. It may be set
	// between calls; the default is DefaultSegmentBytes.
	SegmentBytes int64

	mu       sync.Mutex
	seg      *os.File // active segment (nil until the first append)
	segBytes int64
	lock     *os.File // flock handle pinning single-writer access

	appendedRecords uint64
	appendedBytes   uint64
	lastAppendedSeq uint64

	// buf is Append's frame buffer, reused across calls up to
	// maxAppendBuf bytes.
	buf []byte
}

// OpenFile opens (creating if needed) a file store rooted at dir and
// takes an exclusive advisory lock on it: the WAL is single-writer, so
// a directory already held by a live process yields ErrLocked. The
// lock releases on Close and automatically when the process dies.
func OpenFile(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating store directory: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	return &FileStore{dir: dir, SegmentBytes: DefaultSegmentBytes, lock: lock}, nil
}

func segName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.wal", firstSeq) }
func snapName(seq uint64) string     { return fmt.Sprintf("snap-%016x.snap", seq) }

// parseSeq extracts the hex seq from a "prefix-<16hex>.suffix" name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSeqs returns the seqs of files matching prefix/suffix, ascending.
func (f *FileStore) listSeqs(prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: reading store directory: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			out = append(out, seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Append writes the records as one contiguous byte run into the active
// segment, rolling to a new segment first if the active one is full (or
// none is open yet). Records of one call never split across segments.
func (f *FileStore) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seg == nil || f.segBytes >= f.SegmentBytes {
		if err := f.roll(recs[0].Seq); err != nil {
			return err
		}
	}
	buf := f.buf[:0]
	for _, rec := range recs {
		frame := len(buf)
		buf = appendRecord(append(buf, make([]byte, recFrameLen)...), rec)
		payload := buf[frame+recFrameLen:]
		binary.LittleEndian.PutUint32(buf[frame:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[frame+4:], crc32.ChecksumIEEE(payload))
	}
	if cap(buf) <= maxAppendBuf {
		f.buf = buf
	} else {
		f.buf = nil
	}
	if _, err := f.seg.Write(buf); err != nil {
		return fmt.Errorf("storage: appending WAL records: %w", err)
	}
	f.segBytes += int64(len(buf))
	f.appendedRecords += uint64(len(recs))
	f.appendedBytes += uint64(len(buf))
	f.lastAppendedSeq = recs[len(recs)-1].Seq
	return nil
}

// roll syncs and closes the active segment and starts a new one whose
// name carries the first seq it will hold. Rolling onto an existing
// file truncates it: a same-named segment can only be the torn, empty
// remnant of a crash at the very first record (otherwise replay would
// have advanced past firstSeq and a later name would be chosen).
func (f *FileStore) roll(firstSeq uint64) error {
	if f.seg != nil {
		_ = f.seg.Sync()
		if err := f.seg.Close(); err != nil {
			return fmt.Errorf("storage: closing WAL segment: %w", err)
		}
		f.seg = nil
	}
	seg, err := os.OpenFile(filepath.Join(f.dir, segName(firstSeq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating WAL segment: %w", err)
	}
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint16(hdr[6:], FormatVersion)
	if _, err := seg.Write(hdr[:]); err != nil {
		seg.Close()
		return fmt.Errorf("storage: writing WAL segment header: %w", err)
	}
	f.seg = seg
	f.segBytes = walHeaderLen
	return nil
}

// Replay streams records with Seq > afterSeq across all segments in
// order. Within and across segments, delivered seqs must be contiguous;
// a parse failure stops the current segment (a torn tail is legal), and
// the continuity check turns interior damage into ErrCorrupt: records
// lost in the middle of the log leave a gap the next segment exposes.
func (f *FileStore) Replay(afterSeq uint64, fn func(rec Record) error) error {
	segs, err := f.listSeqs("wal-", ".wal")
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return nil
	}
	// Segments whose whole range precedes the snapshot floor (the next
	// segment starts at or below afterSeq+1) are never read: recovery
	// does not need them, so even damage inside them is irrelevant —
	// they are merely awaiting pruning.
	skip := 0
	for skip+1 < len(segs) && segs[skip+1] <= afterSeq+1 {
		skip++
	}
	segs = segs[skip:]
	// The oldest segment's name pins where the surviving log must start;
	// from there every parsed record must continue the sequence exactly.
	// A tear only ever swallows records that were re-appended into the
	// next segment (or never acknowledged), so a seq that jumps past
	// expect exposes interior damage — with one exception: appends are
	// not fsynced, so a power cut can drop a WAL tail that an fsynced
	// snapshot had already captured. A gap whose missing records all lie
	// at or below afterSeq (the snapshot the caller recovers from) lost
	// nothing recovery needs and is tolerated.
	expect := segs[0]
	for _, first := range segs {
		recs, err := f.readSegment(filepath.Join(f.dir, segName(first)))
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if rec.Seq != expect {
				if rec.Seq < expect || rec.Seq > afterSeq+1 {
					return fmt.Errorf("%w: WAL sequence gap: read record %d, expected %d", ErrCorrupt, rec.Seq, expect)
				}
				expect = rec.Seq
			}
			expect++
			if rec.Seq <= afterSeq {
				continue
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// readSegment parses one segment. A record that fails to parse is
// tolerated as an honest crash tear only when it is the segment's
// physically last content — a torn write never has committed bytes
// after it. A bad record with data behind it is interior damage:
// silently stopping there would drop acknowledged records, so it is
// ErrCorrupt. A missing or short header means a segment that tore
// before its first byte landed — zero records. An alien magic number is
// corruption; an unknown version is ErrVersion.
func (f *FileStore) readSegment(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: reading WAL segment: %w", err)
	}
	if len(data) < walHeaderLen {
		return nil, nil
	}
	if string(data[:6]) != walMagic {
		return nil, fmt.Errorf("%w: %s: bad WAL magic", ErrCorrupt, filepath.Base(path))
	}
	if v := binary.LittleEndian.Uint16(data[6:8]); v < oldestReadable || v > FormatVersion {
		return nil, fmt.Errorf("%w: %s: WAL format version %d, this build reads %d to %d", ErrVersion, filepath.Base(path), v, oldestReadable, FormatVersion)
	}
	var recs []Record
	pos := walHeaderLen
	for pos+recFrameLen <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		crc := binary.LittleEndian.Uint32(data[pos+4:])
		if n > maxRecordLen || pos+recFrameLen+n > len(data) {
			break // length field or payload extends past EOF: a tear
		}
		end := pos + recFrameLen + n
		payload := data[pos+recFrameLen : end]
		bad := crc32.ChecksumIEEE(payload) != crc
		if !bad {
			rec, err := decodeRecord(payload)
			if err != nil {
				bad = true // CRC-valid garbage cannot really happen
			} else {
				recs = append(recs, rec)
				pos = end
				continue
			}
		}
		if end >= len(data) {
			break // the damaged record is the last content: a tear
		}
		return nil, fmt.Errorf("%w: %s: damaged WAL record at offset %d with %d committed bytes after it",
			ErrCorrupt, filepath.Base(path), pos, len(data)-end)
	}
	return recs, nil
}

// WriteSnapshot persists the body atomically: write + fsync a temp
// file, rename it into place, fsync the directory. A crash leaves
// either the previous snapshot set or the previous set plus this one.
func (f *FileStore) WriteSnapshot(seq uint64, body []byte) error {
	hdr := make([]byte, snapHeaderLen, snapHeaderLen+len(body))
	copy(hdr, snapMagic)
	binary.LittleEndian.PutUint16(hdr[6:], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[20:], crc32.ChecksumIEEE(body))
	data := append(hdr, body...)

	final := filepath.Join(f.dir, snapName(seq))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		return fmt.Errorf("storage: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("storage: publishing snapshot: %w", err)
	}
	return syncDir(f.dir)
}

func writeFileSync(path string, data []byte) error {
	file, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := file.Write(data); err != nil {
		file.Close()
		return err
	}
	if err := file.Sync(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // best-effort; some platforms cannot sync directories
	}
	_ = d.Sync()
	return d.Close()
}

// LoadSnapshot returns the newest snapshot that passes validation,
// falling back to older ones past corruption. Only if snapshots exist
// but none is readable does it fail: ErrVersion if any was written by
// an incompatible format (the operator must migrate, not discard),
// ErrCorrupt otherwise.
func (f *FileStore) LoadSnapshot() (uint64, []byte, bool, error) {
	seqs, err := f.listSeqs("snap-", ".snap")
	if err != nil {
		return 0, nil, false, err
	}
	var firstErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		seq, body, err := f.readSnapshot(filepath.Join(f.dir, snapName(seqs[i])))
		if err == nil {
			return seq, body, true, nil
		}
		if firstErr == nil || (errors.Is(err, ErrVersion) && !errors.Is(firstErr, ErrVersion)) {
			firstErr = err
		}
	}
	if len(seqs) > 0 {
		return 0, nil, false, firstErr
	}
	return 0, nil, false, nil
}

// readSnapshot validates one snapshot file's header and body CRC.
func (f *FileStore) readSnapshot(path string) (uint64, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), err)
	}
	if len(data) < snapHeaderLen || string(data[:6]) != snapMagic {
		return 0, nil, fmt.Errorf("%w: %s: bad snapshot header", ErrCorrupt, filepath.Base(path))
	}
	if v := binary.LittleEndian.Uint16(data[6:8]); v < oldestReadable || v > FormatVersion {
		return 0, nil, fmt.Errorf("%w: %s: snapshot format version %d, this build reads %d to %d", ErrVersion, filepath.Base(path), v, oldestReadable, FormatVersion)
	}
	seq := binary.LittleEndian.Uint64(data[8:16])
	n := int(binary.LittleEndian.Uint32(data[16:20]))
	crc := binary.LittleEndian.Uint32(data[20:24])
	if snapHeaderLen+n != len(data) {
		return 0, nil, fmt.Errorf("%w: %s: snapshot body length %d, file holds %d", ErrCorrupt, filepath.Base(path), n, len(data)-snapHeaderLen)
	}
	body := data[snapHeaderLen:]
	if crc32.ChecksumIEEE(body) != crc {
		return 0, nil, fmt.Errorf("%w: %s: snapshot body CRC mismatch", ErrCorrupt, filepath.Base(path))
	}
	return seq, body, nil
}

// Prune keeps the newest keepSnapshots snapshots and deletes WAL
// segments whose records all precede the oldest retained snapshot (a
// segment's coverage ends where the next segment begins; the active
// and newest segments are never deleted).
func (f *FileStore) Prune() error {
	snaps, err := f.listSeqs("snap-", ".snap")
	if err != nil {
		return err
	}
	if len(snaps) == 0 {
		return nil
	}
	for len(snaps) > keepSnapshots {
		if err := os.Remove(filepath.Join(f.dir, snapName(snaps[0]))); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("storage: pruning snapshot: %w", err)
		}
		snaps = snaps[1:]
	}
	floor := snaps[0] // recovery never needs records at or below this
	segs, err := f.listSeqs("wal-", ".wal")
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] > floor+1 {
			break // this segment still holds records above the floor
		}
		if err := os.Remove(filepath.Join(f.dir, segName(segs[i]))); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("storage: pruning WAL segment: %w", err)
		}
	}
	return nil
}

// Stats scans the directory for the store's current footprint.
func (f *FileStore) Stats() (Stats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Stats{
		Dir:             f.dir,
		AppendedRecords: f.appendedRecords,
		AppendedBytes:   f.appendedBytes,
		LastAppendedSeq: f.lastAppendedSeq,
	}
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return Stats{}, fmt.Errorf("storage: reading store directory: %w", err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		if _, ok := parseSeq(e.Name(), "wal-", ".wal"); ok {
			st.Segments++
			st.WALBytes += info.Size()
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			st.Snapshots++
			if seq >= st.LastSnapshotSeq {
				st.LastSnapshotSeq = seq
				st.SnapshotBytes = info.Size()
			}
		}
	}
	return st, nil
}

// metaName maps a meta key to its file name. Keys are restricted to
// filename-safe tokens so the name cannot escape the store directory.
func metaName(key string) (string, error) {
	if key == "" {
		return "", fmt.Errorf("storage: empty meta key")
	}
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return "", fmt.Errorf("storage: meta key %q: only [a-z0-9_-] allowed", key)
		}
	}
	return "meta-" + key, nil
}

// PutMeta durably replaces a coordination record with the same
// atomic-rename discipline as snapshots: a crash leaves either the old
// value or the new one, never a torn mix.
func (f *FileStore) PutMeta(key string, value []byte) error {
	name, err := metaName(key)
	if err != nil {
		return err
	}
	final := filepath.Join(f.dir, name)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, value); err != nil {
		return fmt.Errorf("storage: writing meta %q: %w", key, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("storage: publishing meta %q: %w", key, err)
	}
	return syncDir(f.dir)
}

// GetMeta reads a coordination record; ok is false when it was never
// written.
func (f *FileStore) GetMeta(key string) ([]byte, bool, error) {
	name, err := metaName(key)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(filepath.Join(f.dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("storage: reading meta %q: %w", key, err)
	}
	return data, true, nil
}

// Close syncs and closes the active segment and releases the
// directory lock.
func (f *FileStore) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var err error
	if f.seg != nil {
		_ = f.seg.Sync()
		err = f.seg.Close()
		f.seg = nil
	}
	if f.lock != nil {
		f.lock.Close()
		f.lock = nil
	}
	return err
}

var _ Store = (*FileStore)(nil)
var _ MetaStore = (*FileStore)(nil)
var _ io.Closer = (*FileStore)(nil)
