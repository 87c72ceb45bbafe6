package relax

// The family's one dsys.Program: a label array, one Gluon min-field over
// it, and an engine schedule for the rounds.

import (
	"fmt"

	"gluon/internal/bitset"
	"gluon/internal/ckpt"
	"gluon/internal/dsys"
	"gluon/internal/engine/irgl"
	"gluon/internal/fields"
	"gluon/internal/gluon"
	"gluon/internal/partition"
)

// Algorithm is everything that distinguishes one member of the family from
// another. Name, FieldID and FieldName reach the wire, traces and
// checkpoint files, so an algorithm package fixes them for good.
type Algorithm struct {
	Name      string // dsys.Program.Name
	FieldID   uint32 // namespaces the label field in Gluon's tag space
	FieldName string // Gluon diagnostics, and the checkpoint section
	Step      Step
	// SeedIDs starts every vertex at its own global ID with everything
	// active (cc); otherwise labels start at Infinity around a source.
	SeedIDs bool
}

// program implements dsys.Program and dsys.Checkpointable.
type program struct {
	alg    Algorithm
	source uint64
	p      *partition.Partition
	g      *gluon.Gluon
	labels []uint32
	field  gluon.Field[uint32]
	round  Schedule
}

// factory builds the family's ProgramFactory: it allocates the labels and
// the Gluon min-field over them, and build supplies the one thing engines
// differ in — the schedule over those labels.
func (alg Algorithm) factory(source uint64, build func(p *partition.Partition, labels []uint32) Schedule) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		if alg.Step == Weight && !p.Graph.HasWeights {
			return nil, fmt.Errorf("%s: partition graph has no edge weights", alg.Name)
		}
		if alg.SeedIDs && p.GlobalNodes > 1<<32-1 {
			return nil, fmt.Errorf("%s: global IDs exceed 32-bit labels", alg.Name)
		}
		labels := make([]uint32, p.Graph.NumNodes())
		return &program{
			alg: alg, source: source, p: p, g: g, labels: labels, round: build(p, labels),
			// Push-style: the operator writes a label at an edge's
			// destination and reads it at the source, so OEC partitions need
			// only the reduce pattern and IEC only the broadcast (§3.2).
			field: gluon.Field[uint32]{
				ID:        alg.FieldID,
				Name:      alg.FieldName,
				Write:     gluon.AtDestination,
				Read:      gluon.AtSource,
				Reduce:    fields.Min[uint32](labels),
				Broadcast: fields.Set[uint32](labels),
			},
		}, nil
	}
}

// NewLigra builds the level-synchronous, direction-optimising program; its
// pull reads the partition's cached transpose.
func NewLigra(alg Algorithm, source uint64, workers int) dsys.ProgramFactory {
	return alg.factory(source, func(p *partition.Partition, labels []uint32) Schedule {
		return Ligra(p.Graph, p.InGraph, labels, alg.Step, workers)
	})
}

// NewGalois builds the asynchronous worklist program.
func NewGalois(alg Algorithm, source uint64, workers int) dsys.ProgramFactory {
	return alg.factory(source, func(p *partition.Partition, labels []uint32) Schedule {
		return Galois(p.Graph, labels, alg.Step, workers)
	})
}

// NewIrGL builds the bulk-synchronous device program.
func NewIrGL(alg Algorithm, source uint64, workers int) dsys.ProgramFactory {
	return alg.factory(source, func(p *partition.Partition, labels []uint32) Schedule {
		return IrGL(irgl.New(p.Graph, workers), labels, alg.Step)
	})
}

// Name implements dsys.Program.
func (pr *program) Name() string { return pr.alg.Name }

// Init implements dsys.Program.
func (pr *program) Init() (*bitset.Bitset, error) {
	if pr.alg.SeedIDs {
		return SeedIDs(pr.labels, pr.p.GID), nil
	}
	lid, ok := pr.p.LID(pr.source)
	return SeedSource(pr.labels, lid, ok), nil
}

// Round implements dsys.Program.
func (pr *program) Round(frontier *bitset.Bitset) (*bitset.Bitset, error) {
	return pr.round(frontier), nil
}

// Sync implements dsys.Program.
func (pr *program) Sync(updated *bitset.Bitset) error {
	return gluon.Sync(pr.g, pr.field, updated)
}

// Finalize implements dsys.Program.
func (pr *program) Finalize() error { return gluon.BroadcastAll(pr.g, pr.field) }

// MasterValue implements dsys.Program.
func (pr *program) MasterValue(lid uint32) float64 { return float64(pr.labels[lid]) }

// ExportState implements dsys.Checkpointable. The labels are the program's
// entire round-boundary state (worklists are rebuilt from the runner's
// checkpointed frontier); the section is named after the field.
func (pr *program) ExportState() ([]ckpt.Section, error) {
	return []ckpt.Section{{Name: pr.alg.FieldName, Data: fields.EncodeVals(nil, pr.labels)}}, nil
}

// ImportState implements dsys.Checkpointable, decoding in place into the
// labels the field and the schedule were built around.
func (pr *program) ImportState(secs []ckpt.Section) error {
	snap := ckpt.Snapshot{Sections: secs}
	data := snap.Section(pr.alg.FieldName)
	if data == nil {
		return fmt.Errorf("%s: checkpoint has no %s section", pr.alg.Name, pr.alg.FieldName)
	}
	if err := fields.DecodeVals(data, pr.labels); err != nil {
		return fmt.Errorf("%s: restore %s: %w", pr.alg.Name, pr.alg.FieldName, err)
	}
	return nil
}
