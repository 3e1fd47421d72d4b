package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// sampleFrames is one request frame and one reply frame of each kind the
// stream carries.
func sampleFrames() (batch, reply, conflict []byte) {
	batch = AppendBatchFrame(nil, "w/7", 3, AppendBatchPayload(nil, sampleBatch))
	reply = BeginReply(nil)
	reply = AppendReplyPayload(reply, sampleReply)
	reply = EndReply(reply, 200, 0, false)
	conflict = BeginReply(nil)
	conflict = EndReply(append(conflict, `{"error":"ring version mismatch"}`+"\n"...), 409, 4, true)
	return batch, reply, conflict
}

// TestFrameRoundTrip: what the encoders write, ReadFrame and the parsers
// give back, field for field, over one stream of frames.
func TestFrameRoundTrip(t *testing.T) {
	batch, reply, conflict := sampleFrames()
	r := bytes.NewReader(bytes.Join([][]byte{batch, reply, conflict}, nil))
	p, err := ReadFrame(r, TagBatch, nil, MaxRequestPayload)
	if err != nil {
		t.Fatal(err)
	}
	id, ring, body, err := ParseBatchFrame(p)
	if err != nil || string(id) != "w/7" || ring != 3 || !bytes.Equal(body, AppendBatchPayload(nil, sampleBatch)) {
		t.Fatalf("batch frame reads back as %q, %d, %q, %v", id, ring, body, err)
	}
	for _, c := range []struct {
		status  int
		ring    uint64
		hasRing bool
		body    string
	}{
		{200, 0, false, string(AppendReplyPayload(nil, sampleReply))},
		{409, 4, true, `{"error":"ring version mismatch"}` + "\n"},
	} {
		p, err := ReadFrame(r, TagReply, p, MaxReplyPayload)
		if err != nil {
			t.Fatal(err)
		}
		status, ring, hasRing, body, err := ParseReply(p)
		if err != nil || status != c.status || ring != c.ring || hasRing != c.hasRing || string(body) != c.body {
			t.Fatalf("reply frame reads back as %d, %d, %v, %q, %v; want %+v", status, ring, hasRing, body, err, c)
		}
	}
	if _, err := ReadFrame(r, TagReply, nil, MaxReplyPayload); err != io.EOF {
		t.Fatalf("past the last frame: %v, want io.EOF", err)
	}
}

// TestReadFrameRefusesDamage: a tear is io.ErrUnexpectedEOF; a wrong tag,
// a length past the cap and a CRC mismatch are ErrBadFrame, the length
// refused before any payload is read.
func TestReadFrameRefusesDamage(t *testing.T) {
	batch, _, _ := sampleFrames()
	oversized := bytes.Clone(batch)
	binary.LittleEndian.PutUint32(oversized[1:], 1<<20+1)
	badCRC := bytes.Clone(batch)
	badCRC[len(badCRC)-1] ^= 1
	for name, c := range map[string]struct {
		data []byte
		tag  byte
		want error
	}{
		"torn header":  {batch[:5], TagBatch, io.ErrUnexpectedEOF},
		"torn payload": {batch[:len(batch)-1], TagBatch, io.ErrUnexpectedEOF},
		"wrong tag":    {batch, TagReply, ErrBadFrame},
		"oversized":    {oversized, TagBatch, ErrBadFrame},
		"bad CRC":      {badCRC, TagBatch, ErrBadFrame},
	} {
		_, err := ReadFrame(bytes.NewReader(c.data), c.tag, nil, 1<<20)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", name, err, c.want)
		}
	}
	for _, p := range [][]byte{nil, {5}, {3, 'a', 'b', 'c', 1, 2}} {
		if _, _, _, err := ParseBatchFrame(p); !errors.Is(err, ErrBadFrame) {
			t.Errorf("ParseBatchFrame(%v) = %v, want ErrBadFrame", p, err)
		}
	}
	for _, p := range [][]byte{nil, make([]byte, 10), {200, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0}} {
		if _, _, _, _, err := ParseReply(p); !errors.Is(err, ErrBadFrame) {
			t.Errorf("ParseReply(%v) = %v, want ErrBadFrame", p, err)
		}
	}
}

// TestFramesDoNotAllocate: a warm request buffer, reply buffer and read
// buffer make and read frames without allocating.
func TestFramesDoNotAllocate(t *testing.T) {
	batch, reply, _ := sampleFrames()
	_, _, body, _ := ParseBatchFrame(batch[FrameHeader:])
	out, in := make([]byte, 0, 512), make([]byte, 0, 512)
	stream := bytes.Repeat(reply, 2)
	r := bytes.NewReader(stream)
	allocs := testing.AllocsPerRun(100, func() {
		out = AppendBatchFrame(out[:0], "w/7", 3, body)
		out = EndReply(BeginReply(out), 200, 0, false)
		r.Reset(stream)
		in, _ = ReadFrame(r, TagReply, in, MaxReplyPayload)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per frame round", allocs)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader under a small
// cap: it never panics, fails only with ErrBadFrame, io.EOF or
// io.ErrUnexpectedEOF, never grows its buffer past the cap, and every
// frame it accepts parses or is refused as ErrBadFrame.
func FuzzReadFrame(f *testing.F) {
	batch, reply, conflict := sampleFrames()
	f.Add(batch)
	f.Add(bytes.Join([][]byte{reply, conflict}, nil))
	f.Add(batch[:len(batch)-2])
	oversized := bytes.Clone(reply)
	binary.LittleEndian.PutUint32(oversized[1:], 0xffffffff)
	f.Add(oversized)
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 256
		for _, tag := range []byte{TagBatch, TagReply} {
			r := bytes.NewReader(data)
			for {
				p, err := ReadFrame(r, tag, nil, limit)
				if cap(p) > limit {
					t.Fatalf("the read buffer grew to %d bytes past the cap %d", cap(p), limit)
				}
				if err != nil {
					if !errors.Is(err, ErrBadFrame) && err != io.EOF && err != io.ErrUnexpectedEOF {
						t.Fatalf("ReadFrame failed with %v", err)
					}
					break
				}
				if tag == TagBatch {
					_, _, _, err = ParseBatchFrame(p)
				} else {
					_, _, _, _, err = ParseReply(p)
				}
				if err != nil && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("parsing an accepted frame failed with %v", err)
				}
			}
		}
	})
}
