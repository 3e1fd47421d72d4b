package paretomon

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// BatchID names one batch of one writer for AddBatchOnce: Writer is 1 to
// 64 bytes of [A-Za-z0-9._-], and Seq, from 1 up, numbers the writer's
// batches. The zero BatchID is no id at all (AddBatch).
type BatchID struct {
	Writer string
	Seq    uint64
}

// maxWriters bounds how many writers' last batches a Monitor remembers:
// writer ids come from outside, so a new writer evicts the writer whose
// batch is oldest.
const maxWriters = 64

// String renders the id as "<writer>/<seq>", the X-Paretomon-Batch form,
// in one allocation.
func (id BatchID) String() string {
	var buf [96]byte
	return string(strconv.AppendUint(append(append(buf[:0], id.Writer...), '/'), id.Seq, 10))
}

// ParseBatchID parses String's form; anything else is ErrBadBatchID.
func ParseBatchID(s string) (BatchID, error) {
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		seq, err := strconv.ParseUint(s[i+1:], 10, 64)
		if id := (BatchID{Writer: s[:i], Seq: seq}); err == nil && id.valid() {
			return id, nil
		}
	}
	return BatchID{}, fmt.Errorf("%w: %q, want <writer>/<seq>", ErrBadBatchID, s)
}

// valid reports whether a non-zero id is well formed.
func (id BatchID) valid() bool {
	const chars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-"
	return id.Seq > 0 && len(id.Writer) > 0 && len(id.Writer) <= 64 && strings.Trim(id.Writer, chars) == ""
}

// batchMemo is what a Monitor remembers of one writer's last batch: its
// seq, the stream position it started at (eviction goes oldest first),
// and the deliveries of its applied prefix in batch order — the slice
// the batch's caller got back, not a copy.
type batchMemo struct {
	seq   uint64
	start int
	ds    []Delivery
}

// appliedPrefix returns the saved deliveries of the prefix of objs that
// id's batch has applied already: none for no id or a newer seq, and
// ErrBatchConflict for an older seq or other names. Caller holds mu.
func (m *Monitor) appliedPrefix(id BatchID, objs []Object) ([]Delivery, error) {
	bm := m.batches[id.Writer]
	if id.Writer == "" || bm == nil || id.Seq > bm.seq {
		return nil, nil
	}
	if id.Seq < bm.seq {
		return nil, fmt.Errorf("%w: writer %q is at batch %d, got batch %d", ErrBatchConflict, id.Writer, bm.seq, id.Seq)
	}
	for i, d := range bm.ds {
		if i >= len(objs) || objs[i].Name != d.Object {
			return nil, fmt.Errorf("%w: batch %s applied %q as object %d", ErrBatchConflict, id, d.Object, i)
		}
	}
	return bm.ds, nil
}

// openBatch returns the memo that id's newly applied objects extend: the
// writer's own when it is at this seq already, else a fresh one for the
// batch starting at stream position start. Caller holds mu.
func (m *Monitor) openBatch(id BatchID, start int) *batchMemo {
	bm := m.batches[id.Writer]
	if bm != nil && bm.seq == id.Seq {
		return bm
	}
	if bm == nil {
		if len(m.batches) >= maxWriters {
			oldest := ""
			for w, b := range m.batches {
				if oldest == "" || b.start < m.batches[oldest].start {
					oldest = w
				}
			}
			delete(m.batches, oldest)
		}
		bm = &batchMemo{}
		m.batches[id.Writer] = bm
	}
	*bm = batchMemo{seq: id.Seq, start: start}
	return bm
}

// batchMemos renders the memos for a snapshot, oldest batch first, and
// restoreBatchMemos installs them back. Caller holds mu.
func (m *Monitor) batchMemos() (out []storage.BatchMemo) {
	for w, bm := range m.batches {
		sm := storage.BatchMemo{Writer: w, Seq: bm.seq, Start: uint64(bm.start)}
		for _, d := range bm.ds {
			sm.Objects, sm.Users = append(sm.Objects, d.Object), append(sm.Users, d.Users)
		}
		out = append(out, sm)
	}
	slices.SortFunc(out, func(a, b storage.BatchMemo) int { return cmp.Compare(a.Start, b.Start) })
	return out
}

func (m *Monitor) restoreBatchMemos(memos []storage.BatchMemo) {
	for _, sm := range memos {
		bm := &batchMemo{seq: sm.Seq, start: int(sm.Start)}
		for i, name := range sm.Objects {
			bm.ds = append(bm.ds, Delivery{Object: name, Users: sm.Users[i]})
		}
		m.batches[sm.Writer] = bm
	}
}
