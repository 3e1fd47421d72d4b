package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzFeedReader feeds arbitrary bytes to a FeedReader: Next never
// panics, fails only with ErrBadFrame, io.EOF or io.ErrUnexpectedEOF,
// and every message it returns, framed again, reads back equal.
func FuzzFeedReader(f *testing.F) {
	var stream bytes.Buffer
	if err := WriteHead(&stream, 42); err != nil {
		f.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		var frame bytes.Buffer
		if err := WriteRecord(&frame, rec); err != nil {
			f.Fatal(err)
		}
		f.Add(frame.Bytes())
		stream.Write(frame.Bytes())
	}
	whole := stream.Bytes()
	f.Add(whole)
	f.Add(whole[:len(whole)-3])     // torn payload
	f.Add([]byte{tagRecord, 1, 0})  // torn record header
	f.Add([]byte{tagHead, 1, 2, 3}) // torn head
	oversized := make([]byte, 9)    // a length past maxFramePayload
	oversized[0] = tagRecord
	binary.LittleEndian.PutUint32(oversized[1:], maxFramePayload+1)
	f.Add(oversized)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFeedReader(bytes.NewReader(data))
		for {
			msg, err := fr.Next()
			if err != nil {
				if !errors.Is(err, ErrBadFrame) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("Next failed with %v", err)
				}
				return
			}
			var again bytes.Buffer
			if msg.IsHead {
				err = WriteHead(&again, msg.Head)
			} else {
				err = WriteRecord(&again, msg.Rec)
			}
			if err != nil {
				t.Fatal(err)
			}
			back, err := NewFeedReader(&again).Next()
			if err != nil || !reflect.DeepEqual(back, msg) {
				t.Fatalf("%+v re-framed reads back as %+v, %v", msg, back, err)
			}
		}
	})
}
