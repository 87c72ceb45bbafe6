package gluon

// Stats counts this host's substrate traffic, split the way the paper's
// Figure 10 reports it: value payload versus metadata (bit-vectors, index
// lists, global IDs), plus per-encoding-mode message counts.
type Stats struct {
	// MessagesSent counts field-synchronization messages (not barriers or
	// memoization).
	MessagesSent uint64
	// ValueBytes is payload spent on field values.
	ValueBytes uint64
	// MetadataBytes is payload spent on encodings: mode bytes, counts,
	// bit-vectors, and index lists.
	MetadataBytes uint64
	// GIDBytes is payload spent sending global IDs (only nonzero when
	// temporal invariance is disabled).
	GIDBytes uint64
	// ModeCounts counts messages by encoding mode.
	ModeCounts [5]uint64
}

// msgStats is the accounting record of one encoded message: its mode and
// byte split, filled by encodeMsg. It is the only source of both the Stats
// counters (addMsg) and the encode trace span's tags, so trace sums
// reproduce Stats exactly.
type msgStats struct {
	mode             byte
	value, meta, gid uint64 // wire bytes by kind
}

// addMsg counts one sent message.
func (s *Stats) addMsg(m *msgStats) {
	s.MessagesSent++
	s.ModeCounts[m.mode]++
	s.ValueBytes += m.value
	s.MetadataBytes += m.meta
	s.GIDBytes += m.gid
}

// BytesSent returns total field-sync payload bytes.
func (s Stats) BytesSent() uint64 { return s.ValueBytes + s.MetadataBytes + s.GIDBytes }

// Add accumulates other into s and returns the sum, for cross-host rollups.
func (s Stats) Add(other Stats) Stats {
	s.MessagesSent += other.MessagesSent
	s.ValueBytes += other.ValueBytes
	s.MetadataBytes += other.MetadataBytes
	s.GIDBytes += other.GIDBytes
	for i := range s.ModeCounts {
		s.ModeCounts[i] += other.ModeCounts[i]
	}
	return s
}
