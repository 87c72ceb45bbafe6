// Package autotune implements the partitioning-policy auto-tuning the
// paper's §3.3 enables: because application code is independent of the
// partitioning strategy ("programmers explore a variety of partitioning
// strategies just by changing command-line flags, which permits
// auto-tuning"), the tuner can run a short probe of the actual program
// under every candidate policy and pick a winner by measured time or
// communication volume.
package autotune

import (
	"fmt"
	"sort"
	"time"

	"gluon/internal/comm"
	"gluon/internal/dsys"
	"gluon/internal/gluon"
	"gluon/internal/graph"
	"gluon/internal/partition"
)

// Criterion selects what the tuner minimizes.
type Criterion int

// Tuning criteria.
const (
	// MinTime picks the policy with the lowest probe wall time.
	MinTime Criterion = iota
	// MinVolume picks the policy with the lowest probe communication
	// volume — the right choice when the target network is slower than the
	// probe environment.
	MinVolume
)

// Config configures a tuning probe.
type Config struct {
	Hosts int
	Opt   gluon.Options
	// ProbeRounds caps each candidate run (0 = 5 rounds).
	ProbeRounds int
	// Candidates restricts the policies tried (nil = all four).
	Candidates []partition.Kind
	Criterion  Criterion
	// Net forwards a link-cost model into probe runs.
	Net comm.NetModel
}

// Probe is one candidate's measured outcome.
type Probe struct {
	Policy            partition.Kind
	Time              time.Duration
	CommBytes         uint64
	Rounds            int
	ReplicationFactor float64
}

// Pick probes the program under every candidate policy and returns the
// winner along with all probe measurements (sorted by the criterion,
// winner first).
func Pick(numNodes uint64, edges []graph.Edge, cfg Config, factory dsys.ProgramFactory) (partition.Kind, []Probe, error) {
	if cfg.Hosts < 1 {
		return "", nil, fmt.Errorf("autotune: need at least 1 host")
	}
	rounds := cfg.ProbeRounds
	if rounds <= 0 {
		rounds = 5
	}
	candidates := cfg.Candidates
	if candidates == nil {
		candidates = partition.AllKinds()
	}
	popt := partition.Degrees(numNodes, edges)

	probes := make([]Probe, 0, len(candidates))
	for _, kind := range candidates {
		pol, err := partition.NewPolicy(kind, numNodes, cfg.Hosts, popt)
		if err != nil {
			return "", nil, err
		}
		parts, err := partition.PartitionAll(numNodes, edges, pol)
		if err != nil {
			return "", nil, err
		}
		res, err := dsys.RunPartitioned(parts, dsys.RunConfig{
			Hosts:     cfg.Hosts,
			Policy:    kind,
			Opt:       cfg.Opt,
			MaxRounds: rounds,
			Net:       cfg.Net,
		}, factory)
		if err != nil {
			return "", nil, fmt.Errorf("autotune: probing %s: %w", kind, err)
		}
		probes = append(probes, Probe{
			Policy:            kind,
			Time:              res.Time,
			CommBytes:         res.TotalCommBytes,
			Rounds:            res.Rounds,
			ReplicationFactor: partition.ComputeStats(parts).ReplicationFactor,
		})
	}
	sort.SliceStable(probes, func(a, b int) bool {
		if cfg.Criterion == MinVolume {
			return probes[a].CommBytes < probes[b].CommBytes
		}
		return probes[a].Time < probes[b].Time
	})
	return probes[0].Policy, probes, nil
}
