package store

import (
	"bytes"
	"testing"
)

// The WAL decoders run on every boot after a crash, over bytes a dying
// process may have half-written or a disk may have damaged. Whatever
// they are fed, they must not panic, and a payload they accept must be
// the one encoding of what they decoded: re-encoding gives back the
// input byte for byte, so no two payloads mean the same record. The
// seeds under testdata/fuzz are real encodes of each of the five event
// types and of a snapshot, plus truncations of each.

func FuzzDecodeEvent(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := decodeEvent(data)
		if err != nil {
			return
		}
		if again := encodeEvent(&ev); !bytes.Equal(again, data) {
			t.Fatalf("accepted %s payload re-encodes differently:\n in  %x\n out %x", ev.Type, data, again)
		}
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if again := encodeSnapshot(&s); !bytes.Equal(again, data) {
			t.Fatalf("accepted snapshot payload re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}
