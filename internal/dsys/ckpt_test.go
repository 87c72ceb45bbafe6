package dsys_test

// Survivability suite: the crash matrix (satellite of ISSUE 7's tentpole).
// A 3-host PageRank run is killed at every round boundary — and mid-sync
// through FaultTransport — then restored from checkpoint; the restored
// run's converged values must be byte-identical to the fault-free golden.
// The label family (bfs, cc, sssp — one Checkpointable program) rides the
// same harness as further rows, one per engine.
// Further rows crash and cold-restore pr over loopback TCP meshes, and
// restore checkpoints that carry the exchange-order section older builds
// wrote. A TCP variant kills one rank for real (transport close, like
// kill -9 as seen from the peers) and rejoins a replacement process into
// the held survivors. The buffer-accounting test pins gets == puts across the
// injected-fault scenarios, and the self-poison regression pins that a
// failing host unblocks its OWN parked receivers, not just its peers'.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"gluon/internal/algorithms/bfs"
	"gluon/internal/algorithms/cc"
	"gluon/internal/algorithms/pr"
	"gluon/internal/algorithms/sssp"
	"gluon/internal/bitset"
	"gluon/internal/ckpt"
	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/gluon"
	"gluon/internal/partition"
	"gluon/internal/ref"
)

const (
	cmHosts     = 3
	cmMaxRounds = 8
	cmTol       = 1e-9 // never converges within cmMaxRounds: fixed round count
)

var errInjectedCrash = errors.New("injected crash at round boundary")

// crashAt wraps a Program so one host's Round fails at a chosen round,
// delegating checkpointing to the inner program.
type crashAt struct {
	dsys.Program
	at    int
	round int
}

func (f *crashAt) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	if f.round == f.at {
		return nil, fmt.Errorf("%w %d", errInjectedCrash, f.at)
	}
	f.round++
	return f.Program.Round(frontier)
}

func (f *crashAt) ExportState() ([]ckpt.Section, error) {
	return f.Program.(dsys.Checkpointable).ExportState()
}

func (f *crashAt) ImportState(secs []ckpt.Section) error {
	return f.Program.(dsys.Checkpointable).ImportState(secs)
}

// crashFactory injects crashAt on one host.
func crashFactory(inner dsys.ProgramFactory, host, at int) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		prog, err := inner(p, g)
		if err != nil || p.HostID != host {
			return prog, err
		}
		return &crashAt{Program: prog, at: at}, nil
	}
}

// cmJob is one row of the crash matrix: a program, the variant of the
// crash-matrix graph it runs on, and the round boundaries it is killed at
// (the label programs converge on this graph within three rounds at some
// core counts, and a kill after that would never fire).
type cmJob struct {
	name       string
	weighted   bool // sssp needs edge weights
	symmetrize bool // cc needs an undirected graph
	killAt     []int
	program    func(source uint64) dsys.ProgramFactory
}

var cmPR = cmJob{
	name: "pr", killAt: []int{0, 1, 2, 3, 4, 5, 6, 7},
	program: func(uint64) dsys.ProgramFactory { return pr.NewGalois(cmTol, 2) },
}

var cmJobs = []cmJob{
	cmPR,
	{name: "bfs", killAt: []int{1, 2},
		program: func(s uint64) dsys.ProgramFactory { return bfs.NewLigra(s, 2) }},
	{name: "cc", symmetrize: true, killAt: []int{1, 2},
		program: func(uint64) dsys.ProgramFactory { return cc.NewIrGL(2) }},
	{name: "sssp", weighted: true, killAt: []int{1, 2},
		program: func(s uint64) dsys.ProgramFactory { return sssp.NewGalois(s, 2) }},
}

// parts partitions the job's graph and builds its program.
func (j cmJob) parts(t *testing.T) ([]*partition.Partition, dsys.ProgramFactory) {
	t.Helper()
	numNodes, edges, g := testGraph(t, 6, j.weighted)
	popt := partition.Degrees(numNodes, edges)
	if j.symmetrize {
		edges = ref.Symmetrize(edges)
	}
	pol, err := partition.NewPolicy(partition.CVC, numNodes, cmHosts, popt)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.PartitionAll(numNodes, edges, pol)
	if err != nil {
		t.Fatal(err)
	}
	return parts, j.program(uint64(g.MaxOutDegreeNode()))
}

func cmConfig(dir string) dsys.RunConfig {
	return dsys.RunConfig{
		Hosts: cmHosts, Policy: partition.CVC, Opt: gluon.Opt(),
		CollectValues: true, MaxRounds: cmMaxRounds,
		Checkpoint: &ckpt.Options{Dir: dir, Every: 2, Keep: 3},
	}
}

// cmGolden computes the fault-free reference values (checkpointing on, so
// the golden also proves checkpointing itself does not perturb results).
func cmGolden(t *testing.T, job cmJob) []float64 {
	t.Helper()
	parts, prog := job.parts(t)
	hub := comm.NewHub(cmHosts)
	defer hub.Close()
	res, err := dsys.RunWithTransports(parts, hub.Endpoints(), cmConfig(t.TempDir()), prog)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	return res.Values
}

// mustMatchGolden asserts exact (bit-identical) equality — restored runs
// replay the same deterministic rounds, so there is no tolerance.
func mustMatchGolden(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node %d: restored run yields %v, fault-free run %v (must be byte-identical)",
				i, got[i], want[i])
		}
	}
}

// crashThenRestore runs the job until it fails — host 1's program dies at
// round boundary killAt, or, with killAt < 0, mkTransports injects the
// fault — then cold-restores the cluster from the shared checkpoint
// directory and returns the recovered values.
func crashThenRestore(t *testing.T, job cmJob, dir string, mkTransports func() []comm.Transport, killAt int) []float64 {
	t.Helper()
	crash(t, job, dir, mkTransports, killAt)
	return restore(t, job, dir, mkTransports)
}

// crash runs the job over fresh transports until it fails (see
// crashThenRestore), leaving its checkpoints in dir.
func crash(t *testing.T, job cmJob, dir string, mkTransports func() []comm.Transport, killAt int) {
	t.Helper()
	parts, prog := job.parts(t)
	faulty := prog
	if killAt >= 0 {
		faulty = crashFactory(prog, 1, killAt)
	}
	ts := mkTransports()
	_, err := dsys.RunWithTransports(parts, ts, cmConfig(dir), faulty)
	if err == nil {
		t.Fatal("faulted run succeeded; the fault never fired")
	}
	for _, tr := range ts {
		tr.Close()
	}
}

// restore runs the job restored from dir over fresh transports and returns
// the recovered values.
func restore(t *testing.T, job cmJob, dir string, mkTransports func() []comm.Transport) []float64 {
	t.Helper()
	parts, prog := job.parts(t)
	cfg := cmConfig(dir)
	cfg.Restore = true
	ts := mkTransports()
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	res, rerr := dsys.RunWithTransports(parts, ts, cfg, prog)
	if rerr != nil {
		t.Fatalf("restore run: %v", rerr)
	}
	return res.Values
}

// legacyMemo is the dsys-gluon-memo section that older builds added to
// every checkpoint: host me's master-side exchange orders toward each
// peer — all of them, those whose mirror has in-edges, those whose mirror
// has out-edges — laid out as a u32 host count, then per order and host a
// u32 count and that many u32 local IDs.
func legacyMemo(parts []*partition.Partition, me int) []byte {
	var orders [3][][]uint32
	for i := range orders {
		orders[i] = make([][]uint32, len(parts))
	}
	for h, q := range parts {
		for mlid := q.NumMasters; h != me && mlid < q.NumProxies(); mlid++ {
			if q.Policy.Owner(q.GID(mlid)) != me {
				continue
			}
			lid, _ := parts[me].LID(q.GID(mlid))
			for i, has := range []bool{true, q.HasIn.Test(mlid), q.HasOut.Test(mlid)} {
				if has {
					orders[i][h] = append(orders[i][h], lid)
				}
			}
		}
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(parts)))
	for _, order := range orders {
		for _, lids := range order {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(lids)))
			for _, lid := range lids {
				out = binary.LittleEndian.AppendUint32(out, lid)
			}
		}
	}
	return out
}

// TestCrashMatrix kills host 1 at every round boundary of the run, then at
// several mid-sync points (FaultTransport severs the wire while field data
// is in flight), restoring from checkpoint each time.
func TestCrashMatrix(t *testing.T) {
	for _, job := range cmJobs {
		golden := cmGolden(t, job)
		for _, at := range job.killAt {
			t.Run(fmt.Sprintf("%s/round-%d", job.name, at), func(t *testing.T) {
				var hubs []*comm.Hub
				mk := func() []comm.Transport {
					h := comm.NewHub(cmHosts)
					hubs = append(hubs, h)
					return h.Endpoints()
				}
				defer func() {
					for _, h := range hubs {
						h.Close()
					}
				}()
				got := crashThenRestore(t, job, t.TempDir(), mk, at)
				mustMatchGolden(t, got, golden)
			})
		}
	}
	golden := cmGolden(t, cmPR)

	// Mid-sync: the wire from host 1 to host 0 dies after N frames, well
	// inside a field sync (after the mesh, barrier, Init sync, and the
	// epoch-0 token have used the link).
	for _, kills := range []int{10, 14, 20} {
		t.Run(fmt.Sprintf("midsync-%d", kills), func(t *testing.T) {
			var hubs []*comm.Hub
			first := true
			mk := func() []comm.Transport {
				h := comm.NewHub(cmHosts)
				hubs = append(hubs, h)
				ts := h.Endpoints()
				if first {
					first = false
					ts[1] = comm.NewFaultTransport(ts[1], comm.FaultConfig{KillAfterSends: kills, KillPeer: 0})
				}
				return ts
			}
			defer func() {
				for _, h := range hubs {
					h.Close()
				}
			}()
			got := crashThenRestore(t, cmPR, t.TempDir(), mk, -1)
			mustMatchGolden(t, got, golden)
		})
	}

	// Over sockets: the crash and the cold restore each on a loopback TCP
	// mesh of their own, so the rendezvous and the memoization exchange
	// that follows it cross a real wire.
	for _, at := range []int{1, 4} {
		t.Run(fmt.Sprintf("pr/tcp/round-%d", at), func(t *testing.T) {
			mk := func() []comm.Transport {
				ts, _ := tcpMesh(t, cmHosts)
				return ts
			}
			mustMatchGolden(t, crashThenRestore(t, cmPR, t.TempDir(), mk, at), golden)
		})
	}

	// Checkpoints written by older builds carry a dsys-gluon-memo section
	// with the exchange orders; a restore must ignore it and run the
	// exchange as every restore does.
	t.Run("legacy-memo-section", func(t *testing.T) {
		var hubs []*comm.Hub
		mk := func() []comm.Transport {
			h := comm.NewHub(cmHosts)
			hubs = append(hubs, h)
			return h.Endpoints()
		}
		defer func() {
			for _, h := range hubs {
				h.Close()
			}
		}()
		dir := t.TempDir()
		crash(t, cmPR, dir, mk, 3)
		parts, _ := cmPR.parts(t)
		for h := range parts {
			snap, err := ckpt.Latest(dir, h)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Epoch != 2 {
				t.Fatalf("host %d: newest epoch %d, want 2 (the one the restore loads)", h, snap.Epoch)
			}
			snap.Sections = append(snap.Sections, ckpt.Section{Name: "dsys-gluon-memo", Data: legacyMemo(parts, h)})
			if err := ckpt.WriteFile(dir, snap); err != nil {
				t.Fatal(err)
			}
		}
		mustMatchGolden(t, restore(t, cmPR, dir, mk), golden)
	})
}

// TestRestoreRequiresCheckpointable: enabling checkpointing for a program
// that cannot export state must fail up front, not at the first epoch.
func TestRestoreRequiresCheckpointable(t *testing.T) {
	parts, _ := cmPR.parts(t)
	hub := comm.NewHub(cmHosts)
	defer hub.Close()
	cfg := cmConfig(t.TempDir())
	_, err := dsys.RunWithTransports(parts, hub.Endpoints(), cfg, func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		prog, err := pr.NewGalois(cmTol, 2)(p, g)
		if err != nil {
			return nil, err
		}
		return struct{ dsys.Program }{prog}, nil // strips Checkpointable
	})
	if err == nil {
		t.Fatal("checkpointing a non-Checkpointable program succeeded")
	}
}

// TestRejoinTCP is the kill/replace scenario over real sockets: one rank
// dies mid-run (its process-side transport closes, as peers of a kill -9
// observe), the survivors hold at the rejoin rendezvous, and a replacement
// process dials back into the mesh, restores from the dead rank's
// checkpoints, and the cluster finishes with byte-identical results.
func TestRejoinTCP(t *testing.T) {
	golden := cmGolden(t, cmPR)
	parts, _ := cmPR.parts(t)
	dir := t.TempDir()

	eps, addrs := tcpMesh(t, cmHosts)

	cfg := cmConfig(dir)
	cfg.Rejoin = true

	inner := pr.NewGalois(cmTol, 2)
	type outcome struct {
		host int
		res  *dsys.Result
		err  error
	}
	results := make(chan outcome, cmHosts+1)
	for h := 0; h < cmHosts; h++ {
		factory := inner
		if h == 1 {
			factory = crashFactory(inner, 1, 3) // victim dies at round 3
		}
		go func(h int, f dsys.ProgramFactory) {
			res, err := dsys.RunSingle(parts[h], eps[h], cfg, f)
			results <- outcome{h, res, err}
		}(h, factory)
	}

	// Wait for the victim's death (RunSingle closes its transport, so the
	// survivors' links to rank 1 break exactly as they would on kill -9).
	select {
	case o := <-results:
		if o.host != 1 || o.err == nil {
			t.Fatalf("expected host 1 to die first, got host %d err=%v", o.host, o.err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("victim never died")
	}

	// Replacement: a fresh process-side rank 1 dials the survivors back
	// (RejoinTCP) and restores from the shared checkpoint directory.
	rep, err := comm.RejoinTCP(1, addrs, comm.DialConfig{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("rejoin dial: %v", err)
	}
	rcfg := cfg
	rcfg.Restore = true
	go func() {
		res, err := dsys.RunSingle(parts[1], rep, rcfg, inner)
		results <- outcome{1, res, err}
	}()

	merged := make([]float64, len(golden))
	for got := 0; got < cmHosts; got++ {
		select {
		case o := <-results:
			if o.err != nil {
				t.Fatalf("host %d: %v", o.host, o.err)
			}
			// RunSingle reports local masters only; overlay into the
			// global view (PageRank values are strictly positive).
			for gid, v := range o.res.Values {
				if v != 0 {
					merged[gid] = v
				}
			}
		case <-time.After(120 * time.Second):
			t.Fatal("cluster never finished after rejoin")
		}
	}
	rep.Close()
	mustMatchGolden(t, merged, golden)
}

// TestPoolBalanceUnderFaults pins the payload-ownership contract: across
// the injected-fault scenarios (killed links, truncated frames, a full
// crash/restore cycle) every pooled buffer handed out is returned —
// gets == puts — so error paths cannot leak sync payloads.
func TestPoolBalanceUnderFaults(t *testing.T) {
	comm.SetPoolAccounting(true)
	defer comm.SetPoolAccounting(false)

	parts, _ := cmPR.parts(t)
	for name, fcfg := range map[string]comm.FaultConfig{
		"kill-conn":       {KillAfterSends: 5, KillPeer: 0},
		"truncated-frame": {TruncateRecvAfter: 5},
	} {
		hub := comm.NewHub(cmHosts)
		ts := hub.Endpoints()
		ts[1] = comm.NewFaultTransport(ts[1], fcfg)
		if _, err := dsys.RunWithTransports(parts, ts, cmConfig(t.TempDir()), pr.NewGalois(cmTol, 2)); err == nil {
			t.Fatalf("%s: faulted run succeeded", name)
		}
		hub.Close()
	}
	// A crash + cold restore cycle exercises the rejoin and writer paths.
	var hubs []*comm.Hub
	mk := func() []comm.Transport {
		h := comm.NewHub(cmHosts)
		hubs = append(hubs, h)
		return h.Endpoints()
	}
	crashThenRestore(t, cmPR, t.TempDir(), mk, 2)
	for _, h := range hubs {
		h.Close()
	}

	// Send goroutines may still be draining after the runs return; poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		gets, puts := comm.PoolCounters()
		if gets == puts {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled buffer leak: %d gets vs %d puts (%d buffers lost)", gets, puts, gets-puts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFailingHostPoisonsOwnTransport is the satellite-3 regression: a host
// whose program fails AFTER the final barrier (in Finalize, when no peer
// will fail a collective for it) must have its own transport poisoned by
// the runner, so helper goroutines parked in Recv/RecvAny on that
// transport fail fast instead of blocking until process teardown.
func TestFailingHostPoisonsOwnTransport(t *testing.T) {
	parts, _ := cmPR.parts(t)
	hub := comm.NewHub(cmHosts)
	defer hub.Close()
	ts := hub.Endpoints()

	// A helper parked on the failing host's own transport — the shape of a
	// watchdog gossip drain.
	unblocked := make(chan error, 1)
	go func() {
		_, payload, err := ts[1].RecvAny(comm.TagHeartbeat, nil)
		comm.PutBuf(payload)
		unblocked <- err
	}()

	factory := func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		prog, err := pr.NewGalois(cmTol, 2)(p, g)
		if err != nil || p.HostID != 1 {
			return prog, err
		}
		return &failFinalize{prog}, nil
	}
	cfg := dsys.RunConfig{Hosts: cmHosts, Policy: partition.CVC, Opt: gluon.Opt(), MaxRounds: 3}
	if _, err := dsys.RunWithTransports(parts, ts, cfg, factory); err == nil {
		t.Fatal("run with failing Finalize succeeded")
	}
	select {
	case err := <-unblocked:
		if err == nil {
			t.Fatal("parked RecvAny returned without an error")
		}
		var pe *comm.PeerError
		if !errors.As(err, &pe) {
			t.Fatalf("parked RecvAny got %T (%v), want *comm.PeerError", err, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("helper goroutine still parked in RecvAny after the host failed: own-transport poisoning regressed")
	}
}

type failFinalize struct{ dsys.Program }

func (f *failFinalize) Finalize() error { return errors.New("injected finalize failure") }
