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

// store is where a program's labels live and how Gluon reaches them.
type store struct {
	labels    []uint32
	reduce    gluon.ReduceSpec[uint32]
	broadcast gluon.BroadcastSpec[uint32]
}

// hostStore keeps the labels in an ordinary slice.
func hostStore(n uint32) store {
	labels := make([]uint32, n)
	return store{labels, fields.Min[uint32](labels), fields.Set[uint32](labels)}
}

// deviceStore keeps the labels in a device buffer: the buffer specs provide
// the bulk extract variant and account every host/device staging copy, the
// transfers a GPU plugin performs.
func deviceStore(dev *irgl.Device, n uint32) store {
	buf := irgl.NewBuffer[uint32](dev, n)
	return store{buf.Data(), irgl.MinBuf(buf), irgl.SetBuf(buf)}
}

// factory builds the family's ProgramFactory; build supplies what differs
// between engines — where the labels live and the schedule over them.
func (alg Algorithm) factory(source uint64, build func(p *partition.Partition) (store, Schedule)) dsys.ProgramFactory {
	return func(p *partition.Partition, g *gluon.Gluon) (dsys.Program, error) {
		if alg.Step == Weight && !p.Graph.HasWeights {
			return nil, fmt.Errorf("%s: partition graph has no edge weights", alg.Name)
		}
		if alg.SeedIDs && p.GlobalNodes > 1<<32-1 {
			return nil, fmt.Errorf("%s: global IDs exceed 32-bit labels", alg.Name)
		}
		st, round := build(p)
		return &program{
			alg: alg, source: source, p: p, g: g, labels: st.labels, round: round,
			// Push-style: the operator writes a label at an edge's
			// destination and reads it at the source, so OEC partitions need
			// only the reduce pattern and IEC only the broadcast (§3.2).
			field: gluon.Field[uint32]{
				ID:        alg.FieldID,
				Name:      alg.FieldName,
				Write:     gluon.AtDestination,
				Read:      gluon.AtSource,
				Reduce:    st.reduce,
				Broadcast: st.broadcast,
			},
		}, nil
	}
}

// NewLigra builds the level-synchronous, direction-optimising program; its
// pull reads the partition's cached transpose.
func NewLigra(alg Algorithm, source uint64, workers int) dsys.ProgramFactory {
	return alg.factory(source, func(p *partition.Partition) (store, Schedule) {
		st := hostStore(p.Graph.NumNodes())
		return st, Ligra(p.Graph, p.InGraph, st.labels, alg.Step, workers)
	})
}

// NewGalois builds the asynchronous worklist program.
func NewGalois(alg Algorithm, source uint64, workers int) dsys.ProgramFactory {
	return alg.factory(source, func(p *partition.Partition) (store, Schedule) {
		st := hostStore(p.Graph.NumNodes())
		return st, Galois(p.Graph, st.labels, alg.Step, workers)
	})
}

// NewIrGL builds the bulk-synchronous device program; the labels live in a
// device buffer.
func NewIrGL(alg Algorithm, source uint64, workers int) dsys.ProgramFactory {
	return alg.factory(source, func(p *partition.Partition) (store, Schedule) {
		dev := irgl.New(p.Graph, workers)
		st := deviceStore(dev, p.Graph.NumNodes())
		return st, IrGL(dev, st.labels, alg.Step)
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

// ImportState implements dsys.Checkpointable, decoding in place so a device
// buffer (which labels then aliases) sees the restored labels.
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
