package store

import (
	"bytes"
	"testing"
)

// FuzzFrame drives arbitrary bytes through decodeFrame, the check every Get
// runs on an entry read from disk. It must never panic, and it may return a
// payload only when the input is exactly that payload's header followed by
// the payload. The seed corpus is testdata/fuzz/FuzzFrame.
//
//	go test -run '^$' -fuzz '^FuzzFrame$' -fuzztime 30s ./internal/store/
func FuzzFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, err := decodeFrame(b)
		if err != nil {
			if payload != nil {
				t.Fatalf("decodeFrame returned a payload with error %v", err)
			}
			return
		}
		hdr := frameHeader(payload)
		if want := append(hdr[:], payload...); !bytes.Equal(b, want) {
			t.Fatalf("decodeFrame accepted %d bytes that are not the frame of its %d-byte payload", len(b), len(payload))
		}
	})
}
