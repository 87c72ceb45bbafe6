// Package ckpt implements per-host checkpoints of master field state plus
// the BSP round cursor, so a cluster can survive the loss of a rank
// (ROADMAP "self-healing clusters", DESIGN.md §4.6).
//
// A checkpoint is taken at a round boundary: every host captures its own
// master-owned field sections (the program's ExportState), the current
// frontier, and the memoized address-translation tables, all stamped with
// the round cursor as the epoch. Capture is synchronous and cheap (a copy
// of the per-host arrays); the write happens on a dedicated goroutine so
// compute never waits on the filesystem ("asynchronous" in the Gemini
// sense of chunk-based state shipping staying off the hot path).
//
// On-disk format (versioned, little-endian):
//
//	magic   [8]byte  "GLUCKPT\x01"
//	epoch   u64      round cursor the snapshot was taken at
//	host    u32      writing host
//	hosts   u32      cluster size
//	alg     u8 len + bytes
//	nsec    u32      section count
//	per section: u8 name len + name bytes, u32 data len, data bytes
//	crc     u32      IEEE CRC-32 of everything before it
//
// Files are written to "<name>.tmp" and atomically renamed into place, so
// a reader never observes a torn checkpoint; the CRC additionally rejects
// files truncated by the host dying mid-write before the rename. Retention
// keeps the last K complete epochs per host.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

var magic = [8]byte{'G', 'L', 'U', 'C', 'K', 'P', 'T', 1}

// ErrNoCheckpoint reports that no complete checkpoint exists for a host.
var ErrNoCheckpoint = errors.New("ckpt: no complete checkpoint found")

// Section is one named blob inside a snapshot: a program field array, the
// frontier bitset, or the memoized translation tables. Names must be
// non-empty and at most 255 bytes.
type Section struct {
	Name string
	Data []byte
}

// Snapshot is the in-memory form of one host's checkpoint at one epoch.
type Snapshot struct {
	Algorithm string
	Host      int
	NumHosts  int
	Epoch     uint64
	Sections  []Section
}

// Section returns the named section's data, or nil if absent.
func (s *Snapshot) Section(name string) []byte {
	for _, sec := range s.Sections {
		if sec.Name == name {
			return sec.Data
		}
	}
	return nil
}

// EncodedSize returns the number of bytes Encode will produce.
func (s *Snapshot) EncodedSize() int {
	n := 8 + 8 + 4 + 4 + 1 + len(s.Algorithm) + 4 + 4
	for _, sec := range s.Sections {
		n += 1 + len(sec.Name) + 4 + len(sec.Data)
	}
	return n
}

// Encode serializes the snapshot, including the trailing CRC.
func (s *Snapshot) Encode() ([]byte, error) {
	if len(s.Algorithm) > 255 {
		return nil, fmt.Errorf("ckpt: algorithm name too long (%d bytes)", len(s.Algorithm))
	}
	buf := make([]byte, 0, s.EncodedSize())
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, s.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Host))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.NumHosts))
	buf = append(buf, byte(len(s.Algorithm)))
	buf = append(buf, s.Algorithm...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Sections)))
	for _, sec := range s.Sections {
		if sec.Name == "" || len(sec.Name) > 255 {
			return nil, fmt.Errorf("ckpt: bad section name %q", sec.Name)
		}
		buf = append(buf, byte(len(sec.Name)))
		buf = append(buf, sec.Name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sec.Data)))
		buf = append(buf, sec.Data...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// Decode parses and CRC-checks an encoded snapshot.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < 8+8+4+4+1+4+4 {
		return nil, errors.New("ckpt: short checkpoint")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, errors.New("ckpt: CRC mismatch")
	}
	if [8]byte(body[:8]) != magic {
		return nil, errors.New("ckpt: bad magic or unsupported version")
	}
	s := &Snapshot{}
	s.Epoch = binary.LittleEndian.Uint64(body[8:])
	s.Host = int(binary.LittleEndian.Uint32(body[16:]))
	s.NumHosts = int(binary.LittleEndian.Uint32(body[20:]))
	p := 24
	alen := int(body[p])
	p++
	if p+alen+4 > len(body) {
		return nil, errors.New("ckpt: truncated algorithm name")
	}
	s.Algorithm = string(body[p : p+alen])
	p += alen
	nsec := int(binary.LittleEndian.Uint32(body[p:]))
	p += 4
	// Every section takes at least 5 bytes (name length, data length), so a
	// count the remaining bytes cannot hold is refused before it sizes an
	// allocation: the CRC guards against corruption, not a crafted file.
	if nsec > (len(body)-p)/5 {
		return nil, fmt.Errorf("ckpt: %d sections cannot fit in %d bytes", nsec, len(body)-p)
	}
	s.Sections = make([]Section, 0, nsec)
	for i := 0; i < nsec; i++ {
		if p+1 > len(body) {
			return nil, errors.New("ckpt: truncated section header")
		}
		nlen := int(body[p])
		p++
		if nlen == 0 {
			return nil, errors.New("ckpt: empty section name")
		}
		if p+nlen+4 > len(body) {
			return nil, errors.New("ckpt: truncated section name")
		}
		name := string(body[p : p+nlen])
		p += nlen
		dlen := int(binary.LittleEndian.Uint32(body[p:]))
		p += 4
		if p+dlen > len(body) {
			return nil, errors.New("ckpt: truncated section data")
		}
		s.Sections = append(s.Sections, Section{Name: name, Data: body[p : p+dlen]})
		p += dlen
	}
	if p != len(body) {
		return nil, errors.New("ckpt: trailing bytes after sections")
	}
	return s, nil
}

// fileName is the canonical per-host, per-epoch checkpoint name. Epochs are
// zero-padded so lexical order matches numeric order.
func fileName(host int, epoch uint64) string {
	return fmt.Sprintf("ckpt-h%03d-e%012d.gl", host, epoch)
}

// parseFileName inverts fileName; ok is false for foreign files.
func parseFileName(name string) (host int, epoch uint64, ok bool) {
	if !strings.HasPrefix(name, "ckpt-h") || !strings.HasSuffix(name, ".gl") {
		return 0, 0, false
	}
	rest := strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-h"), ".gl")
	hs, es, found := strings.Cut(rest, "-e")
	if !found {
		return 0, 0, false
	}
	h, err1 := strconv.Atoi(hs)
	e, err2 := strconv.ParseUint(es, 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return h, e, true
}

// AtomicWriteFile installs data at path using the package's torn-write
// discipline: write to "<path>.tmp", fsync, close, rename. A reader never
// observes a partial file, and a crash mid-write leaves at most a stale
// .tmp behind. Parent directories are created as needed. The postmortem
// plane (internal/trace's flight recorder) shares this writer so crash
// bundles get the same durability as checkpoints.
func AtomicWriteFile(path string, data []byte) error {
	if dir := filepath.Dir(path); dir != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// WriteFile encodes the snapshot and atomically installs it under dir,
// returning the number of bytes written.
func WriteFile(dir string, s *Snapshot) (int, error) {
	data, err := s.Encode()
	if err != nil {
		return 0, err
	}
	final := filepath.Join(dir, fileName(s.Host, s.Epoch))
	if err := AtomicWriteFile(final, data); err != nil {
		return 0, err
	}
	return len(data), nil
}

// epochs returns the complete (renamed) epochs present for host, ascending.
func epochs(dir string, host int) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []uint64
	for _, ent := range ents {
		if h, e, ok := parseFileName(ent.Name()); ok && h == host {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Load reads the checkpoint for (host, epoch). The snapshot must decode and
// pass its CRC.
func Load(dir string, host int, epoch uint64) (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(dir, fileName(host, epoch)))
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s epoch %d: %w", fileName(host, epoch), epoch, err)
	}
	if s.Host != host || s.Epoch != epoch {
		return nil, fmt.Errorf("ckpt: file %s claims host %d epoch %d", fileName(host, epoch), s.Host, s.Epoch)
	}
	return s, nil
}

// Latest returns the newest checkpoint for host that decodes cleanly,
// or ErrNoCheckpoint.
func Latest(dir string, host int) (*Snapshot, error) {
	eps, err := epochs(dir, host)
	if err != nil {
		return nil, err
	}
	for i := len(eps) - 1; i >= 0; i-- {
		s, err := Load(dir, host, eps[i])
		if err == nil {
			return s, nil
		}
	}
	return nil, ErrNoCheckpoint
}

// Prune removes all but the newest keep epochs for host. keep <= 0 keeps
// everything.
func Prune(dir string, host int, keep int) error {
	if keep <= 0 {
		return nil
	}
	eps, err := epochs(dir, host)
	if err != nil {
		return err
	}
	for i := 0; i < len(eps)-keep; i++ {
		if err := os.Remove(filepath.Join(dir, fileName(host, eps[i]))); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// Options configures periodic checkpointing for a run.
type Options struct {
	// Dir is the checkpoint directory (shared or per-host; files embed the
	// host rank so a shared directory is safe).
	Dir string
	// Every takes a checkpoint at round boundaries where round%Every == 0.
	// 0 means every 8 rounds.
	Every int
	// Keep retains the last Keep complete epochs per host (0 = 3).
	Keep int
}

// EveryOrDefault returns the effective checkpoint cadence.
func (o Options) EveryOrDefault() int {
	if o.Every <= 0 {
		return 8
	}
	return o.Every
}

// KeepOrDefault returns the effective retention depth.
func (o Options) KeepOrDefault() int {
	if o.Keep <= 0 {
		return 3
	}
	return o.Keep
}

// Writer drains captured snapshots onto disk on its own goroutine, so the
// BSP loop hands off a snapshot and keeps computing. The first write error
// is sticky and surfaces on the next Submit or on Close, so a checkpointed
// run fails loudly rather than running un-protected.
type Writer struct {
	dir    string
	host   int
	keep   int
	ch     chan *Snapshot
	done   chan struct{}
	onDone func(err error)

	mu  sync.Mutex
	err error

	pending   sync.WaitGroup // snapshots submitted and not yet written
	closeOnce sync.Once
}

// NewWriter starts the single-writer goroutine. onDone, if non-nil, is
// called after each write attempt with its outcome.
func NewWriter(opt Options, host int, onDone func(err error)) *Writer {
	w := &Writer{
		dir:    opt.Dir,
		host:   host,
		keep:   opt.KeepOrDefault(),
		ch:     make(chan *Snapshot, 1),
		done:   make(chan struct{}),
		onDone: onDone,
	}
	go w.run()
	return w
}

func (w *Writer) run() {
	defer close(w.done)
	for s := range w.ch {
		_, err := WriteFile(w.dir, s)
		if err == nil {
			err = Prune(w.dir, w.host, w.keep)
		}
		if err != nil {
			w.mu.Lock()
			if w.err == nil {
				w.err = err
			}
			w.mu.Unlock()
		}
		if w.onDone != nil {
			w.onDone(err)
		}
		w.pending.Done()
	}
}

// Submit hands a snapshot to the writer goroutine. It blocks only if the
// previous write is still in flight (the channel holds one pending
// snapshot), and returns any earlier sticky write error.
func (w *Writer) Submit(s *Snapshot) error {
	if err := w.Err(); err != nil {
		return err
	}
	w.pending.Add(1)
	w.ch <- s
	return nil
}

// Wait blocks until every snapshot submitted so far is on disk (or has
// failed to get there). A host about to choose its newest checkpoint calls
// it first: the write of the epoch it just submitted may still be in flight.
func (w *Writer) Wait() { w.pending.Wait() }

// Err returns the first write error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close drains pending writes, stops the goroutine, and returns the first
// write error. Safe to call more than once (callers defer it for error
// paths and also close explicitly to surface the final write's outcome).
func (w *Writer) Close() error {
	w.closeOnce.Do(func() { close(w.ch) })
	<-w.done
	return w.Err()
}
