package dsys

import (
	"bytes"
	"testing"

	"gluon/internal/trace"
)

// FuzzHeartbeat: no payload panics decodeHeartbeat, and an accepted frame
// is exactly what encodeHeartbeat writes for the heartbeat and flags it
// decoded.
func FuzzHeartbeat(f *testing.F) {
	seed := make([]byte, hbFrameLen)
	encodeHeartbeat(seed, trace.Heartbeat{Host: 2, Round: 5, Phase: trace.PhaseFold, Bytes: 1 << 20, BeatNs: 123456789}, hbFlagBye)
	f.Add(seed)
	f.Add(seed[:hbFrameLen-1])
	f.Fuzz(func(t *testing.T, p []byte) {
		hb, flags, err := decodeHeartbeat(p)
		if err != nil {
			return
		}
		got := make([]byte, hbFrameLen)
		encodeHeartbeat(got, hb, flags)
		if !bytes.Equal(got, p) {
			t.Fatalf("decoded %+v flags %d from %x, which encodes as %x", hb, flags, p, got)
		}
	})
}
