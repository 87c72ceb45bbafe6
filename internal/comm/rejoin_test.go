package comm

import (
	"bytes"
	"testing"
)

// FuzzRejoinFrame: no payload panics DecodeRejoinFrame, and an accepted
// frame is exactly what EncodeRejoinFrame writes for its kind and epoch.
func FuzzRejoinFrame(f *testing.F) {
	for _, kind := range []byte{RejoinHold, RejoinResume, RejoinHoldReply, 0, 4} {
		f.Add(EncodeRejoinFrame(kind, 7))
	}
	f.Add([]byte{RejoinHold, 1, 2})
	f.Fuzz(func(t *testing.T, p []byte) {
		kind, epoch, err := DecodeRejoinFrame(p)
		if err != nil {
			return
		}
		got := EncodeRejoinFrame(kind, epoch)
		defer PutBuf(got)
		if !bytes.Equal(got, p) {
			t.Fatalf("decoded kind %d epoch %d from %x, which encodes as %x", kind, epoch, p, got)
		}
	})
}
