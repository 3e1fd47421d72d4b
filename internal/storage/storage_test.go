package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/stats"
)

func obj(id int, attrs ...int32) object.Object { return object.Object{ID: id, Attrs: attrs} }

func sampleRecords() []Record {
	return []Record{
		{Seq: 1, Op: OpObject, Name: "o1", Values: []string{"a", "b"}},
		{Seq: 2, Op: OpObject, Name: "o2", Values: []string{"", "long value with spaces"}},
		{Seq: 3, Op: OpPreference, User: "u1", Attr: "brand", Better: "Apple", Worse: "Sony"},
	}
}

func lifecycleRecords() []Record {
	return []Record{
		{Seq: 4, Op: OpAddUser, Name: "carol", Prefs: []RecordPref{
			{Attr: "brand", Better: "Apple", Worse: "Sony"},
			{Attr: "size", Better: "small", Worse: "large"},
		}},
		{Seq: 5, Op: OpAddUser, Name: "dave"}, // no initial preferences
		{Seq: 6, Op: OpRetractPreference, User: "carol", Attr: "brand", Better: "Apple", Worse: "Sony"},
		{Seq: 7, Op: OpRemoveUser, User: "dave"},
		{Seq: 8, Op: OpRemoveObject, Name: "o1"},
	}
}

// taggedRecords is a batch append made under a batch id: every object
// record carries it.
func taggedRecords() []Record {
	return []Record{
		{Seq: 9, Op: OpObject, Name: "o5", Values: []string{"a", "b"}, Writer: "feed-1", Batch: 7},
		{Seq: 10, Op: OpObject, Name: "o6", Values: []string{"b", "a"}, Writer: "feed-1", Batch: 7},
	}
}

// memoSnapshot is sampleSnapshot carrying two writers' batch memos.
func memoSnapshot() *Snapshot {
	s := sampleSnapshot()
	s.Batches = []BatchMemo{
		{Writer: "feed-1", Seq: 7, Start: 0, Objects: []string{"o1", "o2"}, Users: [][]string{{"alice", "carol"}, {}}},
		{Writer: "r.2_x", Seq: 1, Start: 2, Objects: []string{"o3"}, Users: [][]string{{"carol"}}},
	}
	return s
}

func TestRecordCodecRoundTrip(t *testing.T) {
	for _, rec := range append(append(sampleRecords(), lifecycleRecords()...), taggedRecords()...) {
		got, err := decodeRecord(appendRecord(nil, rec))
		if err != nil {
			t.Fatalf("decode(%+v): %v", rec, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
	}
}

func TestRecordCodecRejectsDamage(t *testing.T) {
	payload := appendRecord(nil, sampleRecords()[0])
	for _, tc := range [][]byte{
		payload[:len(payload)-1],              // truncated
		append(payload[:0:0], 0xff),           // garbage op
		append(payload[:0:0], payload...)[:3], // mid-field cut
	} {
		if _, err := decodeRecord(tc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decodeRecord(%x): got %v, want ErrCorrupt", tc, err)
		}
	}
	if _, err := decodeRecord(append(append([]byte{}, payload...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: want ErrCorrupt")
	}
}

// TestBatchTagCodec: an untagged object record encodes exactly as in
// format v3, a tag rides behind the values, and a tag that is cut or
// malformed (empty writer, batch 0) is ErrCorrupt.
func TestBatchTagCodec(t *testing.T) {
	tagged := taggedRecords()[0]
	plain := tagged
	plain.Writer, plain.Batch = "", 0
	payload, untagged := appendRecord(nil, tagged), appendRecord(nil, plain)
	if !bytes.HasPrefix(payload, untagged) || len(payload) != len(untagged)+len("feed-1")+2 {
		t.Fatalf("tagged payload %x does not extend the untagged %x by the tag", payload, untagged)
	}
	if _, err := decodeRecord(appendRecord(nil, Record{Seq: 1, Op: OpObject, Name: "o", Writer: "w"})); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tag with batch 0: got %v, want ErrCorrupt", err)
	}
	for cut := len(untagged) + 1; cut < len(payload); cut++ {
		if _, err := decodeRecord(payload[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("tag cut at %d of %d: got %v, want ErrCorrupt", cut, len(payload), err)
		}
	}
	if _, err := decodeRecord(append(untagged, 0, 1)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty writer: got %v, want ErrCorrupt", err)
	}
}

// TestSnapshotMemoSection: memos round-trip as the body's last section; a
// body without memos leaves the section out, so it is a v3 body; a cut
// inside the section is ErrCorrupt.
func TestSnapshotMemoSection(t *testing.T) {
	want := memoSnapshot()
	body := want.Marshal()
	got, err := UnmarshalSnapshot(body)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %v\ngot  %+v\nwant %+v", err, got.Batches, want.Batches)
	}
	bare := sampleSnapshot().Marshal()
	if !bytes.HasPrefix(body, bare) {
		t.Fatal("the memo section is not the body's last")
	}
	for cut := len(bare) + 1; cut < len(body); cut++ {
		if _, err := UnmarshalSnapshot(body[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d inside the memo section: got %v, want ErrCorrupt", cut, err)
		}
	}
}

func sampleSnapshot() *Snapshot {
	st := core.NewEngineState(2, 1)
	st.UserFronts[0] = []object.Object{obj(0, 1, 2), obj(3, 0, 0)}
	st.UserFronts[1] = []object.Object{obj(3, 0, 0)}
	st.ClusterFronts[0] = []object.Object{obj(0, 1, 2), obj(3, 0, 0)}
	st.EnsureClusterBuffers()
	st.ClusterBuffers[0] = []object.Object{obj(2, 1, 1), obj(3, 0, 0)}
	// The window of 3 holds o2 (removed: its entry is 0), o3 and o4.
	st.Windowed, st.Seen = true, 4
	return &Snapshot{
		Algorithm: 1, Window: 3, Measure: 3, BranchCut: 0.55,
		ClusterCount: 0, Theta1: 500, Theta2: 0.5,
		BaseUsers: 2,
		Users: []UserState{
			{Name: "alice", Alive: true, Prefs: [][][2]int{{{0, 1}}, {{1, 2}, {0, 2}}}},
			{Name: "bob", Alive: false, Prefs: [][][2]int{{}, {}}},
			{Name: "carol", Alive: true, Prefs: [][][2]int{{}, {{0, 1}}}},
		},
		Clusters: [][]int{{0, 2}, {}},
		Domains:  [][]string{{"x", "y"}, {"p", "q", "r"}},
		Objects: []ObjectState{
			{Name: "o1", Alive: true, Attrs: []int32{1, 2}},
			{Name: "o2", Alive: false, Attrs: []int32{0, 0}},
			{Name: "o3", Alive: true, Attrs: []int32{1, 1}},
			{Name: "o4", Alive: true, Attrs: []int32{0, 0}},
		},
		Counters: stats.Counters{Comparisons: 10, FilterComparisons: 4, VerifyComparisons: 6, Delivered: 3, Processed: 4},
		Engine:   st,
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	got, err := UnmarshalSnapshot(want.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalSnapshot: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestSnapshotCodecRejectsDamage(t *testing.T) {
	body := sampleSnapshot().Marshal()
	for cut := 0; cut < len(body); cut += 7 {
		if _, err := UnmarshalSnapshot(body[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: got %v, want ErrCorrupt", cut, err)
		}
	}
	if _, err := UnmarshalSnapshot(append(append([]byte{}, body...), 1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: want ErrCorrupt")
	}
}

// TestSnapshotWindowSectionMatchesTable: the window section is written
// from the object table, and a section that disagrees with the table — a
// removed object's slot spelled alive, an alive one blanked, another
// stream position — is ErrCorrupt.
func TestSnapshotWindowSectionMatchesTable(t *testing.T) {
	body := sampleSnapshot().Marshal()
	tail := []byte{1, 4, 3, 0, 3, 4} // hasRing, seen, 3 slots: o2 removed, o3, o4
	if !bytes.HasSuffix(body, tail) {
		t.Fatalf("body ends %v, want the window section %v", body[len(body)-len(tail):], tail)
	}
	head := body[:len(body)-len(tail)]
	for _, bad := range [][]byte{{1, 4, 3, 2, 3, 4}, {1, 4, 3, 0, 0, 4}, {1, 5, 3, 0, 3, 4}, {1, 4, 2, 3, 4}} {
		if _, err := UnmarshalSnapshot(append(slices.Clip(head), bad...)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("window section %v: got %v, want ErrCorrupt", bad, err)
		}
	}
	appendOnly := sampleSnapshot()
	appendOnly.Window = 0
	if _, err := UnmarshalSnapshot(appendOnly.Marshal()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a window section without a window: got %v, want ErrCorrupt", err)
	}
}

// stores runs a subtest against both implementations.
func stores(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Run("file", func(t *testing.T) {
		s, err := OpenFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fn(t, s)
	})
	t.Run("mem", func(t *testing.T) { fn(t, NewMem()) })
}

func replayAll(t *testing.T, s Store, after uint64) []Record {
	t.Helper()
	var out []Record
	if err := s.Replay(after, func(rec Record) error { out = append(out, rec); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestStoreAppendReplay(t *testing.T) {
	stores(t, func(t *testing.T, s Store) {
		recs := sampleRecords()
		if err := s.Append(recs...); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, s, 0); !reflect.DeepEqual(got, recs) {
			t.Fatalf("replay: got %+v, want %+v", got, recs)
		}
		if got := replayAll(t, s, 2); !reflect.DeepEqual(got, recs[2:]) {
			t.Fatalf("replay after 2: got %+v", got)
		}
	})
}

func TestStoreSnapshotLifecycle(t *testing.T) {
	stores(t, func(t *testing.T, s Store) {
		if _, _, ok, err := s.LoadSnapshot(); err != nil || ok {
			t.Fatalf("empty store: ok=%v err=%v", ok, err)
		}
		if err := s.WriteSnapshot(5, []byte("five")); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(9, []byte("nine")); err != nil {
			t.Fatal(err)
		}
		seq, body, ok, err := s.LoadSnapshot()
		if err != nil || !ok || seq != 9 || string(body) != "nine" {
			t.Fatalf("got seq=%d body=%q ok=%v err=%v", seq, body, ok, err)
		}
		st, err := s.Stats()
		if err != nil || st.Snapshots != 2 || st.LastSnapshotSeq != 9 {
			t.Fatalf("stats %+v err=%v", st, err)
		}
	})
}

func TestStorePruneKeepsRecoverableHistory(t *testing.T) {
	stores(t, func(t *testing.T, s Store) {
		if fs, ok := s.(*FileStore); ok {
			fs.SegmentBytes = 1 // force a fresh segment per append
		}
		var recs []Record
		for seq := uint64(1); seq <= 10; seq++ {
			rec := Record{Seq: seq, Op: OpObject, Name: "o", Values: []string{"v"}}
			recs = append(recs, rec)
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		for _, seq := range []uint64{3, 6, 9} {
			if err := s.WriteSnapshot(seq, []byte{byte(seq)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Prune(); err != nil {
			t.Fatal(err)
		}
		st, err := s.Stats()
		if err != nil || st.Snapshots != keepSnapshots {
			t.Fatalf("after prune: stats %+v err=%v", st, err)
		}
		// Everything behind the OLDER retained snapshot (seq 6) must
		// still replay, so losing snapshot 9 is survivable.
		got := replayAll(t, s, 6)
		if !reflect.DeepEqual(got, recs[6:]) {
			t.Fatalf("replay after 6: got %+v, want %+v", got, recs[6:])
		}
	})
}

func TestStoreRejectsSequenceGap(t *testing.T) {
	stores(t, func(t *testing.T, s Store) {
		if err := s.Append(Record{Seq: 1, Op: OpObject, Name: "o1"}); err != nil {
			t.Fatal(err)
		}
		err := s.Append(Record{Seq: 3, Op: OpObject, Name: "o3"})
		if fs, ok := s.(*FileStore); ok {
			// The file store accepts the write (it cannot cheaply know) but
			// replay must expose the gap.
			if err != nil {
				t.Fatal(err)
			}
			fs.Close()
			if err := s.Replay(0, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("gap replay: got %v, want ErrCorrupt", err)
			}
			return
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mem gap append: got %v, want ErrCorrupt", err)
		}
	})
}

// segmentFiles returns WAL segment paths sorted by first seq.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	fs := &FileStore{dir: dir}
	seqs, err := fs.listSeqs("wal-", ".wal")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(seqs))
	for i, seq := range seqs {
		out[i] = filepath.Join(dir, segName(seq))
	}
	return out
}

func TestFileStoreToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := s.Append(recs...); err != nil {
		t.Fatal(err)
	}
	s.Close()
	segs := segmentFiles(t, dir)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last record's payload: a crash mid-write.
	if err := os.WriteFile(segs[0], data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := replayAll(t, s2, 0); !reflect.DeepEqual(got, recs[:2]) {
		t.Fatalf("torn tail replay: got %+v, want first two records", got)
	}
	// The next append (seq 3 again) starts a fresh segment; replay then
	// yields the healed log.
	if err := s2.Append(recs[2]); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, s2, 0); !reflect.DeepEqual(got, recs) {
		t.Fatalf("healed replay: got %+v, want %+v", got, recs)
	}
}

func TestFileStoreDetectsInteriorDamage(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SegmentBytes = 1 // one record per segment
	recs := sampleRecords()
	for _, rec := range recs {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs := segmentFiles(t, dir)
	if len(segs) != 3 {
		t.Fatalf("expected 3 segments, got %d", len(segs))
	}
	// Flip one CRC byte in the FIRST segment: the damage is interior
	// (later segments hold live records), so recovery must refuse.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[walHeaderLen+4] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Replay(0, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior CRC damage: got %v, want ErrCorrupt", err)
	}
}

func TestFileStoreFlippedTailCRCFallsBackCleanly(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := s.Append(recs...); err != nil {
		t.Fatal(err)
	}
	s.Close()
	segs := segmentFiles(t, dir)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // flip a byte inside the newest record
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := replayAll(t, s2, 0); !reflect.DeepEqual(got, recs[:2]) {
		t.Fatalf("flipped tail: got %+v, want clean fallback to first two records", got)
	}
}

func TestFileStoreSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteSnapshot(4, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(8, []byte("new")); err != nil {
		t.Fatal(err)
	}
	// Deleting the newest snapshot falls back to the older one.
	if err := os.Remove(filepath.Join(dir, snapName(8))); err != nil {
		t.Fatal(err)
	}
	seq, body, ok, err := s.LoadSnapshot()
	if err != nil || !ok || seq != 4 || string(body) != "old" {
		t.Fatalf("fallback: seq=%d body=%q ok=%v err=%v", seq, body, ok, err)
	}
	// A corrupt newest snapshot also falls back.
	if err := s.WriteSnapshot(8, []byte("new")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(8))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if seq, _, ok, err = s.LoadSnapshot(); err != nil || !ok || seq != 4 {
		t.Fatalf("corrupt-newest fallback: seq=%d ok=%v err=%v", seq, ok, err)
	}
	// All snapshots corrupt: ErrCorrupt, not silent fresh start.
	old := filepath.Join(dir, snapName(4))
	data, err = os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	data[snapHeaderLen] ^= 0xff
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.LoadSnapshot(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("all corrupt: got %v, want ErrCorrupt", err)
	}
}

func TestFileStoreRejectsFutureVersions(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteSnapshot(1, []byte("body")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[6] = 0xff // bump the header version
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.LoadSnapshot(); !errors.Is(err, ErrVersion) {
		t.Fatalf("snapshot version bump: got %v, want ErrVersion", err)
	}

	if err := s.Append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	segs := segmentFiles(t, dir)
	data, err = os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[6] = 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Replay(0, func(Record) error { return nil }); !errors.Is(err, ErrVersion) {
		t.Fatalf("WAL version bump: got %v, want ErrVersion", err)
	}
}

// TestFileStoreToleratesSnapshotCoveredGap covers the power-loss case:
// appends are not fsynced, so a cut can drop a WAL tail that an fsynced
// snapshot already captured. After the next restart appends resume past
// the gap; replay from the snapshot must succeed, while replay from
// genesis (no snapshot covering the gap) must still flag corruption.
func TestFileStoreToleratesSnapshotCoveredGap(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := s.Append(recs...); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Power loss: records 2 and 3 vanish from the OS buffer, but an
	// fsynced snapshot had captured state through seq 3.
	segs := segmentFiles(t, dir)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	cut := walHeaderLen + recFrameLen + len(appendRecord(nil, recs[0]))
	if err := os.WriteFile(segs[0], data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	// Restart: the monitor recovered from the snapshot (walSeq=3) and
	// appends seq 4 into a fresh segment.
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec4 := Record{Seq: 4, Op: OpObject, Name: "o4", Values: []string{"v"}}
	if err := s2.Append(rec4); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	// Second restart, again from the snapshot: the 2..3 gap is covered.
	s3, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	var got []Record
	if err := s3.Replay(3, func(rec Record) error { got = append(got, rec); return nil }); err != nil {
		t.Fatalf("snapshot-covered gap: %v", err)
	}
	if !reflect.DeepEqual(got, []Record{rec4}) {
		t.Fatalf("replay after 3: got %+v", got)
	}
	// Without a snapshot covering the gap, the loss is real corruption.
	if err := s3.Replay(0, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("uncovered gap: got %v, want ErrCorrupt", err)
	}
}

// TestFileStoreDirectoryLock pins single-writer access: a second open
// of a held directory fails with ErrLocked until the first closes.
func TestFileStoreDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open: got %v, want ErrLocked", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	s2.Close()
}

// TestFileStoreInteriorDamageInNewestSegment pins that a damaged record
// with committed records after it IN THE SAME segment is corruption,
// never a silently shortened log.
func TestFileStoreInteriorDamageInNewestSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := s.Append(recs...); err != nil {
		t.Fatal(err)
	}
	s.Close()
	segs := segmentFiles(t, dir)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST record: records 2 and 3 are
	// intact and committed behind it.
	data[walHeaderLen+recFrameLen] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Replay(0, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior damage in newest segment: got %v, want ErrCorrupt", err)
	}
}

// TestFormatVersionSkew pins the v3→v4 bump: files written by v1 or v2
// (v2's engine sections carry a dedup object table that v3 dropped; v1
// predates lifecycle records) are intact bytes this build must refuse
// with ErrVersion — migrate or roll back, never silently misread — while
// a v3 directory, which is v4 without batch tags and memos, opens.
func TestFormatVersionSkew(t *testing.T) {
	if FormatVersion != 4 {
		t.Fatalf("FormatVersion = %d; this test pins the v4 bump", FormatVersion)
	}
	for _, old := range []byte{1, 2, 3} {
		dir := t.TempDir()
		s, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(sampleRecords()[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(1, sampleSnapshot().Marshal()); err != nil {
			t.Fatal(err)
		}
		s.Close()

		// Rewrite both headers to claim the old format version.
		for _, name := range append(segmentFiles(t, dir), filepath.Join(dir, snapName(1))) {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			data[6], data[7] = old, 0 // u16 LE version
			if err := os.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s2, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		var recs []Record
		werr := s2.Replay(0, func(rec Record) error { recs = append(recs, rec); return nil })
		_, body, _, serr := s2.LoadSnapshot()
		if old < 3 {
			if !errors.Is(werr, ErrVersion) {
				t.Errorf("v%d WAL segment: got %v, want ErrVersion", old, werr)
			}
			if !errors.Is(serr, ErrVersion) {
				t.Errorf("v%d snapshot: got %v, want ErrVersion", old, serr)
			}
			continue
		}
		if werr != nil || !reflect.DeepEqual(recs, sampleRecords()[:1]) {
			t.Errorf("v3 WAL segment: %v, %+v", werr, recs)
		}
		if snap, err := UnmarshalSnapshot(body); serr != nil || err != nil || !reflect.DeepEqual(snap, sampleSnapshot()) {
			t.Errorf("v3 snapshot: %v / %v", serr, err)
		}
	}
}

// appendBatch is n object records from seq on, tagged like a batch.
func appendBatch(seq uint64, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Seq: seq + uint64(i), Op: OpObject, Name: fmt.Sprint("o", seq+uint64(i)),
			Values: []string{"13-15.9", "Apple", "dual", "g7"}, Writer: "router", Batch: seq}
	}
	return recs
}

// TestFileStoreAppendAllocs: a warm Append frames its records into the
// store's reused buffer, allocating nothing.
func TestFileStoreAppendAllocs(t *testing.T) {
	fs, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const n, runs = 16, 100
	batches := make([][]Record, runs+1) // AllocsPerRun warms up once
	for i := range batches {
		batches[i] = appendBatch(uint64(1+i*n), n)
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		if err := fs.Append(batches[next]...); err != nil {
			t.Fatal(err)
		}
		next++
	}); got != 0 {
		t.Errorf("a warm Append of %d records allocates %v times, want 0", n, got)
	}
	if recs := replayAll(t, fs, 0); len(recs) != n*(runs+1) || !reflect.DeepEqual(recs[n:2*n], batches[1]) {
		t.Fatalf("replayed %d records, want %d, the second batch intact", len(recs), n*(runs+1))
	}
}

func BenchmarkFileStoreAppend(b *testing.B) {
	fs, err := OpenFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	const n = 16
	recs := appendBatch(1, n)
	b.ReportAllocs()
	for range b.N {
		if err := fs.Append(recs...); err != nil {
			b.Fatal(err)
		}
		for i := range recs {
			recs[i].Seq += n
		}
	}
}
