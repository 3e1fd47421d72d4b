package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	paretomon "repro"
)

// sampleBatch and sampleReply are a small batch and the reply that
// answers it: an object without values, a delivery to nobody, a value
// longer than one length byte counts, and a name that is not ASCII.
var (
	sampleBatch = []paretomon.Object{
		{Name: "o1", Values: []string{"a", "b"}},
		{Name: "o2", Values: nil},
		{Name: "ö3", Values: []string{string(bytes.Repeat([]byte("v"), 200)), ""}},
	}
	sampleReply = []paretomon.Delivery{
		{Object: "o1", Users: []string{"u1"}},
		{Object: "o2"},
		{Object: "ö3", Users: []string{"u1", "u2"}},
	}
)

// benchShape is the benchmark's routed batch — 16 objects of 4 values —
// and a reply to it from one partition, 3 users a delivery.
func benchShape() ([]paretomon.Object, []paretomon.Delivery) {
	objs := make([]paretomon.Object, 16)
	ds := make([]paretomon.Delivery, len(objs))
	for i := range objs {
		name := fmt.Sprint("b", 100000+i)
		objs[i] = paretomon.Object{Name: name, Values: []string{"13-15.9", "Apple", fmt.Sprint("v", i%3), "dual"}}
		ds[i] = paretomon.Delivery{Object: name, Users: []string{fmt.Sprint("u", i%16), fmt.Sprint("u", (i+5)%16), fmt.Sprint("u", (i+11)%16)}}
	}
	return objs, ds
}

// TestPayloadRoundTrip: what the encoders write, the decoders give back;
// nil lists come back empty.
func TestPayloadRoundTrip(t *testing.T) {
	b := &Buffer{}
	objs, err := DecodeBatchPayload(b, AppendBatchPayload(nil, sampleBatch))
	want := slices.Clone(sampleBatch)
	want[1].Values = []string{}
	if err != nil || !reflect.DeepEqual(objs, want) {
		t.Fatalf("batch round trip: %q, %v", objs, err)
	}
	ds, err := DecodeReplyPayload(b, AppendReplyPayload(nil, sampleReply), sampleBatch)
	wantDs := slices.Clone(sampleReply)
	wantDs[1].Users = []string{}
	if err != nil || !reflect.DeepEqual(ds, wantDs) {
		t.Fatalf("reply round trip: %q, %v", ds, err)
	}
	if empty, err := DecodeBatchPayload(b, AppendBatchPayload(nil, nil)); err != nil || len(empty) != 0 {
		t.Fatalf("an empty batch: %q, %v", empty, err)
	}
}

// TestPayloadRefusals: every failure is ErrBadPayload — a cut, a count or
// length past the bytes present, trailing bytes, a string that is not
// UTF-8, and a reply that does not answer the batch sent, in number or
// by name.
func TestPayloadRefusals(t *testing.T) {
	batch, reply := AppendBatchPayload(nil, sampleBatch), AppendReplyPayload(nil, sampleReply)
	renamed := slices.Clone(sampleBatch)
	renamed[2].Name = "o3"
	for name, c := range map[string]struct {
		p     []byte
		reply bool
		sent  []paretomon.Object
	}{
		"empty":            {nil, false, nil},
		"cut":              {batch[:len(batch)-1], false, nil},
		"cut varint":       {[]byte{0x80}, false, nil},
		"count past bytes": {[]byte{200, 1, 'x', 0}, false, nil},
		"length past":      {[]byte{1, 9, 'x', 0}, false, nil},
		"trailing":         {append(slices.Clone(batch), 0), false, nil},
		"name not UTF-8":   {AppendBatchPayload(nil, []paretomon.Object{{Name: "a\xff"}}), false, nil},
		"value not UTF-8":  {AppendBatchPayload(nil, []paretomon.Object{{Name: "a", Values: []string{"\xc3"}}}), false, nil},
		"reply cut":        {reply[:len(reply)-1], true, sampleBatch},
		"reply trailing":   {append(slices.Clone(reply), 0), true, sampleBatch},
		"reply too short":  {reply, true, append(slices.Clone(sampleBatch), paretomon.Object{Name: "o4"})},
		"reply renamed":    {reply, true, renamed},
		"user not UTF-8":   {AppendReplyPayload(nil, []paretomon.Delivery{{Object: "o1", Users: []string{"\xff"}}}), true, sampleBatch[:1]},
	} {
		var err error
		if c.reply {
			_, err = DecodeReplyPayload(&Buffer{}, c.p, c.sent)
		} else {
			_, err = DecodeBatchPayload(&Buffer{}, c.p)
		}
		if !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: %v, want ErrBadPayload", name, err)
		}
	}
}

// TestPayloadAllocs: a warm buffer decodes the benchmark's batch into its
// 16 names, the objects and one values slice, and a reply to it into the
// deliveries and one users slice; the encoders do not allocate.
func TestPayloadAllocs(t *testing.T) {
	objs, ds := benchShape()
	batch, reply := AppendBatchPayload(nil, objs), AppendReplyPayload(nil, ds)
	b, out := &Buffer{}, make([]byte, 0, 1024)
	for name, c := range map[string]struct {
		fn   func()
		want float64
	}{
		"DecodeBatchPayload": {func() { _, _ = DecodeBatchPayload(b, batch) }, float64(len(objs) + 2)},
		"DecodeReplyPayload": {func() { _, _ = DecodeReplyPayload(b, reply, objs) }, 2},
		"AppendBatchPayload": {func() { out = AppendBatchPayload(out[:0], objs) }, 0},
		"AppendReplyPayload": {func() { out = AppendReplyPayload(out[:0], ds) }, 0},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocations, want %v", name, got, c.want)
		}
	}
}

// FuzzStreamPayload feeds arbitrary bytes to both payload decoders: they
// never panic and fail only with ErrBadPayload. A batch and a reply have
// one layout, so bytes that decode as a batch also decode as the reply
// that answers it; those bytes re-encode to a payload that decodes to
// the same objects, and every cut of it, or it with a byte more, is
// refused, as is the reply once an object sent was another.
func FuzzStreamPayload(f *testing.F) {
	objs, ds := benchShape()
	for _, p := range [][]byte{
		AppendBatchPayload(nil, sampleBatch), AppendReplyPayload(nil, sampleReply),
		AppendBatchPayload(nil, objs), AppendReplyPayload(nil, ds), {0}, {200, 1},
	} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &Buffer{}
		if _, err := DecodeReplyPayload(b, data, sampleBatch); err != nil && !errors.Is(err, ErrBadPayload) {
			t.Fatalf("DecodeReplyPayload failed with %v", err)
		}
		objs, err := DecodeBatchPayload(b, data)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("DecodeBatchPayload failed with %v", err)
			}
			return
		}
		ds, err := DecodeReplyPayload(b, data, objs)
		if err != nil || len(ds) != len(objs) {
			t.Fatalf("a batch's bytes as its reply: %d deliveries, %v", len(ds), err)
		}
		for i, d := range ds {
			if d.Object != objs[i].Name || !slices.Equal(d.Users, objs[i].Values) {
				t.Fatalf("delivery %d is %q, the object %q", i, d, objs[i])
			}
		}
		enc := AppendBatchPayload(nil, objs)
		if again, err := DecodeBatchPayload(b, enc); err != nil || !reflect.DeepEqual(again, objs) {
			t.Fatalf("re-encoded, %q decodes to %q, %v", objs, again, err)
		}
		if !bytes.Equal(AppendReplyPayload(nil, ds), enc) {
			t.Fatal("the reply encoder writes another layout than the batch encoder")
		}
		if len(enc) > len(data) {
			t.Fatalf("re-encoded in %d bytes, decoded from %d", len(enc), len(data))
		}
		for k := range len(enc) + 1 {
			p := enc[:k]
			if k == len(enc) {
				p = append(slices.Clone(enc), 0)
			}
			if _, err := DecodeBatchPayload(b, p); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("%d of %d bytes decode as a batch: %v", len(p), len(enc), err)
			}
			if _, err := DecodeReplyPayload(b, p, objs); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("%d of %d bytes decode as a reply: %v", len(p), len(enc), err)
			}
		}
		if len(objs) > 0 {
			other := slices.Clone(objs)
			other[len(other)-1].Name += "'"
			if _, err := DecodeReplyPayload(b, enc, other); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("a reply for %q answers %q: %v", objs, other, err)
			}
		}
	})
}

// BenchmarkStreamDecode decodes the benchmark's routed batch and a
// partition's reply to it in both encodings: the JSON of POST
// /objects/batch (the reply checked against the batch as checkReply
// does) and the ingest stream's binary payload.
func BenchmarkStreamDecode(b *testing.B) {
	objs, ds := benchShape()
	check := func(got []paretomon.Delivery) {
		for i, d := range got {
			if d.Object != objs[i].Name {
				b.Fatalf("delivery %d is for %q", i, d.Object)
			}
		}
	}
	for _, c := range []struct {
		name   string
		data   []byte
		decode func(buf *Buffer, data []byte) error
	}{
		{"batch/json", AppendBatch(nil, objs), func(buf *Buffer, data []byte) error {
			buf.B = append(buf.B[:0], data...)
			_, err := DecodeBatch(buf)
			return err
		}},
		{"batch/binary", AppendBatchPayload(nil, objs), func(buf *Buffer, data []byte) error {
			_, err := DecodeBatchPayload(buf, data)
			return err
		}},
		{"reply/json", AppendDeliveries(nil, ds), func(buf *Buffer, data []byte) error {
			buf.B = append(buf.B[:0], data...)
			got, err := DecodeDeliveries(buf)
			check(got)
			return err
		}},
		{"reply/binary", AppendReplyPayload(nil, ds), func(buf *Buffer, data []byte) error {
			_, err := DecodeReplyPayload(buf, data, objs)
			return err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := &Buffer{}
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			for range b.N {
				if err := c.decode(buf, c.data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
