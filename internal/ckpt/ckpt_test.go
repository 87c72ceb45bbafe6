package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func sampleSnapshot(epoch uint64) *Snapshot {
	return &Snapshot{
		Algorithm: "pr",
		Host:      1,
		NumHosts:  3,
		Epoch:     epoch,
		Sections: []Section{
			{Name: "pr-rank", Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{Name: "pr-outdeg", Data: []byte{9, 10}},
			{Name: "empty", Data: nil},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleSnapshot(42)
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != s.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(data), s.EncodedSize())
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != "pr" || got.Host != 1 || got.NumHosts != 3 || got.Epoch != 42 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Sections) != 3 {
		t.Fatalf("got %d sections, want 3", len(got.Sections))
	}
	if string(got.Section("pr-rank")) != string(s.Sections[0].Data) {
		t.Fatalf("pr-rank round-trip mismatch")
	}
	if got.Section("no-such") != nil {
		t.Fatal("lookup of a missing section returned data")
	}
}

// Every corrupted byte must be caught by the CRC (or a structural check) —
// never silently decoded.
func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := sampleSnapshot(7).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0xA5
		if _, err := Decode(bad); err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", i, len(data))
		}
	}
	if _, err := Decode(data[:len(data)-1]); err == nil {
		t.Fatal("truncated checkpoint went undetected")
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing byte went undetected")
	}
	if _, err := Decode(oversizedCount(t)); err == nil {
		t.Fatal("a section count the file cannot hold went undetected")
	}
}

// withCRC returns data with its last four bytes replaced by the CRC of the
// rest, so an input reaches the parser behind the checksum.
func withCRC(data []byte) []byte {
	out := append([]byte(nil), data...)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	return out
}

// oversizedCount is a 50-byte checkpoint with a valid CRC whose section
// count is 0xFFFFFFFF: sizing the section slice by that count asks the
// runtime for ~170 GB, which no recover can catch.
func oversizedCount(t testing.TB) []byte {
	data, err := (&Snapshot{Algorithm: "pr", NumHosts: 1}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	body := append(data[:len(data)-8], 0xFF, 0xFF, 0xFF, 0xFF)
	body = append(body, make([]byte, 50-4-len(body))...)
	return withCRC(append(body, 0, 0, 0, 0))
}

// FuzzDecode: a checkpoint is read back from disk after a crash, so no file
// may panic Decode or make it allocate past what the file can hold, and a
// file it accepts re-encodes to the same bytes. Each input is tried as
// given and with its CRC made valid, so the fuzzer reaches the parser.
func FuzzDecode(f *testing.F) {
	good, err := sampleSnapshot(7).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(oversizedCount(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, withCRC(data))
		}
		for _, in := range inputs {
			s, err := Decode(in)
			if err != nil {
				continue
			}
			again, err := s.Encode()
			if err != nil {
				t.Fatalf("Decode accepted a snapshot Encode refuses: %v", err)
			}
			if !bytes.Equal(again, in) {
				t.Fatalf("re-encoding changed the file:\n got %x\nwant %x", again, in)
			}
		}
	})
}

func TestWriteLoadLatest(t *testing.T) {
	dir := t.TempDir()
	for _, epoch := range []uint64{0, 4, 8} {
		if err := WriteFile(dir, sampleSnapshot(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Load(dir, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch != 4 {
		t.Fatalf("Load(4) returned epoch %d", s.Epoch)
	}
	latest, err := Latest(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Epoch != 8 {
		t.Fatalf("Latest returned epoch %d, want 8", latest.Epoch)
	}
	// No files for host 2.
	if _, err := Latest(dir, 2); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest for absent host: %v, want ErrNoCheckpoint", err)
	}
}

// Latest must skip a corrupt newest file and fall back to the previous
// complete checkpoint — that is the whole point of retention.
func TestLatestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	for _, epoch := range []uint64{2, 4} {
		if err := WriteFile(dir, sampleSnapshot(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, fileName(1, 4))
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	latest, err := Latest(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Epoch != 2 {
		t.Fatalf("Latest returned epoch %d, want fallback to 2", latest.Epoch)
	}
}

func TestPruneRetention(t *testing.T) {
	dir := t.TempDir()
	for epoch := uint64(1); epoch <= 6; epoch++ {
		if err := WriteFile(dir, sampleSnapshot(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	// A foreign host's file must survive host 1's pruning.
	other := sampleSnapshot(1)
	other.Host = 2
	if err := WriteFile(dir, other); err != nil {
		t.Fatal(err)
	}
	if err := Prune(dir, 1, 3); err != nil {
		t.Fatal(err)
	}
	got, err := epochs(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 4 || got[2] != 6 {
		t.Fatalf("after prune host 1 has epochs %v, want [4 5 6]", got)
	}
	if e2, _ := epochs(dir, 2); len(e2) != 1 {
		t.Fatalf("pruning host 1 touched host 2's files: %v", e2)
	}
}

func TestFileNameOrdering(t *testing.T) {
	a := fileName(3, 99)
	b := fileName(3, 100)
	if !(a < b) {
		t.Fatalf("lexical order broken: %q !< %q", a, b)
	}
	host, epoch, ok := parseFileName(b)
	if !ok || host != 3 || epoch != 100 {
		t.Fatalf("parseFileName(%q) = %d,%d,%v", b, host, epoch, ok)
	}
	for _, bad := range []string{"ckpt-h003-e000000000100.tmp", "other.gl", "ckpt-hx-ey.gl"} {
		if _, _, ok := parseFileName(bad); ok {
			t.Fatalf("parseFileName accepted %q", bad)
		}
	}
}

func TestWriterAsync(t *testing.T) {
	dir := t.TempDir()
	var wrote []uint64
	w := NewWriter(Options{Dir: dir, Keep: 2}, 1, func(epoch uint64, err error) {
		if err == nil {
			wrote = append(wrote, epoch)
		}
	})
	for epoch := uint64(0); epoch < 5; epoch++ {
		if err := w.Submit(sampleSnapshot(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if !slices.Equal(wrote, []uint64{0, 1, 2, 3, 4}) {
		t.Fatalf("onDone reported writes of epochs %v, want 0 through 4", wrote)
	}
	got, err := epochs(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != 4 {
		t.Fatalf("writer retention left epochs %v, want [3 4]", got)
	}
}

// TestWriterWait: after Wait, what was submitted is what Latest finds — the
// order a host about to roll back relies on — and the writer keeps working.
func TestWriterWait(t *testing.T) {
	dir := t.TempDir()
	w := NewWriter(Options{Dir: dir}, 1, nil)
	defer w.Close()
	w.Wait() // nothing pending
	for epoch := uint64(2); epoch <= 6; epoch += 2 {
		if err := w.Submit(sampleSnapshot(epoch)); err != nil {
			t.Fatal(err)
		}
		w.Wait()
		if s, err := Latest(dir, 1); err != nil || s.Epoch != epoch {
			t.Fatalf("after Wait: Latest = %v, %v; want epoch %d", s, err, epoch)
		}
	}
}

// A writer pointed at an unwritable directory must fail sticky and loud.
func TestWriterStickyError(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// Dir's parent is a regular file: MkdirAll and every write must fail.
	w := NewWriter(Options{Dir: filepath.Join(blocker, "deep")}, 0, nil)
	_ = w.Submit(sampleSnapshot(1))
	if err := w.Close(); err == nil {
		t.Fatal("write into a missing directory reported no error")
	}
}
