package dsys

import (
	"errors"
	"fmt"
	"testing"

	"gluon/internal/comm"
)

// TestFirstFailureNamesTheFailedHost replays the error sets a 3-host run
// ends with when host 1's transport discards a truncated frame: whichever
// peer sent it and whatever order the others fail in, the report names
// host 1 and wraps its first-hand error.
func TestFirstFailureNamesTheFailedHost(t *testing.T) {
	peer := func(h int, err error) error {
		return fmt.Errorf("gluon: sync: %w", &comm.PeerError{Host: h, Err: err})
	}
	lost := fmt.Errorf("%w: EOF", comm.ErrConnLost)
	from2 := peer(2, comm.ErrTruncatedFrame)
	from0 := peer(0, comm.ErrTruncatedFrame)
	crash := errors.New("dsys: panic in BSP round loop")
	for _, c := range []struct {
		name string
		errs []error
		want int
	}{
		// Host 2 sees host 1 drop its link; the runner tells host 0 that
		// host 2 failed before it tells it about host 1.
		{"sender 2, link drop", []error{peer(2, peer(1, lost)), from2, peer(1, lost)}, 2},
		{"sender 2, told", []error{peer(1, from2), from2, peer(0, peer(1, from2))}, 0},
		{"sender 0, told in a chain", []error{peer(2, peer(1, from0)), from0, peer(1, from0)}, 2},
		{"crash", []error{peer(1, lost), crash, peer(1, crash)}, 2},
		{"no peer error", []error{nil, crash, nil}, 1},
	} {
		h, err := firstFailure(c.errs)
		var pe *comm.PeerError
		if h != c.want || err != c.errs[c.want] || (errors.As(err, &pe) && pe.Host != 1) {
			t.Errorf("%s: reported host %d (%v), want host %d naming host 1", c.name, h, err, c.want)
		}
	}
	if h, err := firstFailure(make([]error, 3)); h != -1 || err != nil {
		t.Errorf("no failure: reported host %d (%v)", h, err)
	}
}
