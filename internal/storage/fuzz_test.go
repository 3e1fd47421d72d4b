package storage

import (
	"errors"
	"reflect"
	"testing"
)

// Fuzz targets for the binary codec: whatever bytes arrive — torn tails,
// bit rot, hostile input — decoding must either succeed or fail with
// ErrCorrupt. It must never panic, never allocate proportionally to a
// corrupt length field, and a successful decode must re-encode to a
// payload that decodes identically (the codec's canonical round trip).
//
// CI runs these as a short -fuzztime smoke on every push; longer local
// sessions just raise the budget:
//
//	go test -run=^$ -fuzz=FuzzDecodeRecord -fuzztime=60s ./internal/storage

func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range append(append(sampleRecords(), lifecycleRecords()...), taggedRecords()...) {
		f.Add(appendRecord(nil, rec))
	}
	// A tagged record cut inside its tag.
	tagged := appendRecord(nil, taggedRecords()[0])
	f.Add(tagged[:len(tagged)-3])
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x01, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := decodeRecord(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeRecord(%x): error %v does not wrap ErrCorrupt", b, err)
			}
			return
		}
		// A successful decode must survive a canonical round trip. The
		// re-encoded bytes may differ from the input (LEB128 admits
		// redundant encodings), but the decoded value must be stable.
		again, err := decodeRecord(appendRecord(nil, rec))
		if err != nil {
			t.Fatalf("re-decode of %+v: %v", rec, err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("canonical round trip changed the record: %+v vs %+v", again, rec)
		}
	})
}

func FuzzUnmarshalSnapshot(f *testing.F) {
	f.Add(sampleSnapshot().Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00})
	// String-table-heavy seed: empty, unicode, and duplicate interned
	// values; names that collide with values; an engine section whose ids
	// index the object table (format v3), including a tombstoned ring slot.
	rich := sampleSnapshot()
	rich.Domains = [][]string{{"", "Škoda", "long value with spaces", "x"}, {"x", "x\x00y", "ÿ"}}
	rich.Users[0].Name = ""
	rich.Users[1].Name = "Škoda"
	rich.Objects[1].Name = ""
	f.Add(rich.Marshal())
	// Torn tails: cut inside the string table, the object table, and the
	// engine id lists. Every prefix must decode to ErrCorrupt, not panic.
	body := rich.Marshal()
	for _, cut := range []int{1, len(body) / 4, len(body) / 2, len(body) - 3} {
		f.Add(body[:cut])
	}
	// Engine section referencing an id outside the object table: intact
	// framing, unresolvable state — must be ErrCorrupt.
	oob := sampleSnapshot()
	oob.Engine.UserFronts[0][0].ID = 99
	f.Add(oob.Marshal())
	// Batch memos (format v4), whole and cut inside the section.
	memo := memoSnapshot().Marshal()
	f.Add(memo)
	f.Add(memo[:len(memo)-4])
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := UnmarshalSnapshot(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("UnmarshalSnapshot(%x): error %v does not wrap ErrCorrupt", b, err)
			}
			return
		}
		again, err := UnmarshalSnapshot(snap.Marshal())
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot: %v", err)
		}
		if !reflect.DeepEqual(again, snap) {
			t.Fatalf("canonical round trip changed the snapshot")
		}
	})
}
