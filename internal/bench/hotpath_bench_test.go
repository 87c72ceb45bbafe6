package bench

// BenchmarkSyncHotPath measures the full field-sync hot path end to end:
// per-peer encode, transport, any-order receive, decode, apply — the loop
// the engines drive every round. It runs one Sync per iteration across all
// hosts of an in-process hub, per encoding mode and host count, with
// b.ReportAllocs() so the steady-state allocation behaviour of the sync
// pipeline is tracked release to release. The fixture is syncBenchCluster,
// the one behind BENCH_sync.json and the guard.

import (
	"fmt"
	"testing"

	"gluon/internal/gluon"
	"gluon/internal/trace"
)

// benchSyncCluster runs one hot-path benchmark on a fresh cluster at the
// pinned graph (rmat scale 12, edge factor 8, seed 7); setup, if non-nil,
// runs on the cluster before timing starts.
func benchSyncCluster(b *testing.B, hosts int, opt gluon.Options, setup func(*syncBenchCluster)) {
	p := DefaultParams()
	p.Scale, p.EdgeFactor, p.Seed = 12, 8, 7
	c, err := newSyncBenchCluster(p, hosts, opt)
	if err != nil {
		b.Fatal(err)
	}
	defer c.close()
	if setup != nil {
		setup(c)
	}
	if err := c.run(b); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSyncHotPath(b *testing.B) {
	encodings := []struct {
		name string
		enc  gluon.Encoding
	}{
		{"auto", gluon.EncodingAuto},
		{"dense", gluon.EncodingDense},
		{"bitvec", gluon.EncodingBitvec},
		{"indices", gluon.EncodingIndices},
	}
	for _, hosts := range []int{2, 8} {
		for _, e := range encodings {
			b.Run(fmt.Sprintf("hosts=%d/%s", hosts, e.name), func(b *testing.B) {
				opt := gluon.Opt()
				opt.ForceEncoding = e.enc
				benchSyncCluster(b, hosts, opt, nil)
			})
		}
	}
}

// BenchmarkSyncHotPathTrace measures the tracing tax on the same hot path
// in its three states: off (no recorder attached — the default, the same
// run as BenchmarkSyncHotPath's auto rows), disabled (recorders attached
// but the trace gated off — the cost of the atomic enabled check), and on
// (full span emission). Only this benchmark measures the three states;
// no gate holds them to a budget (DESIGN.md §4.3).
func BenchmarkSyncHotPathTrace(b *testing.B) {
	for _, hosts := range []int{2, 8} {
		for _, mode := range []string{"off", "disabled", "on"} {
			b.Run(fmt.Sprintf("hosts=%d/%s", hosts, mode), func(b *testing.B) {
				var setup func(*syncBenchCluster)
				if mode != "off" {
					setup = func(c *syncBenchCluster) {
						tr := trace.New(trace.Config{Label: "bench"})
						tr.SetEnabled(mode == "on")
						for h, g := range c.gs {
							g.SetRecorder(tr.Recorder(h))
						}
					}
				}
				benchSyncCluster(b, hosts, gluon.Opt(), setup)
			})
		}
	}
}

// BenchmarkSyncHotPathUnopt tracks the pre-Gluon (GID, value) wire format
// path, which the paper's UNOPT configuration exercises.
func BenchmarkSyncHotPathUnopt(b *testing.B) {
	for _, hosts := range []int{2, 8} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			benchSyncCluster(b, hosts, gluon.Unopt(), nil)
		})
	}
}
