package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Magic identifies a checkpoint file; the trailing digits are the format
// generation and change only on incompatible layout changes.
const Magic = "RFCKPT01"

// Version is the current checkpoint payload version. Decoders accept only
// versions they know; bumping it invalidates older files explicitly instead
// of misreading them.
//
// Version 2: the engine's random streams are counter-based, so the (seed,
// pos) pairs in the payload name different streams than in version 1 and a
// version-1 payload cannot be resumed.
const Version = 2

// VersionError reports an intact checkpoint written under a payload version
// this build does not read. Unlike a torn or corrupt file, Latest never skips
// it: falling back to an older checkpoint (or to none, replaying the log into
// a fresh engine) would silently recover different state.
type VersionError struct {
	Got, Want uint64
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: unsupported version %d (want %d)", e.Got, e.Want)
}

// Snapshot is one durable checkpoint: the opaque engine payload plus the
// header metadata recovery needs before decoding a single payload byte.
type Snapshot struct {
	// Version is the payload format version (Version when encoding).
	Version uint64
	// Fingerprint is a hash of the engine configuration that produced the
	// payload. Restore refuses a payload whose fingerprint differs from the
	// running configuration — restoring particle state into a differently
	// parameterized engine would silently diverge instead of failing.
	Fingerprint uint64
	// Epoch is the last epoch the checkpointed state has fully processed.
	Epoch int
	// WALSegment is the first write-ahead-log segment that is NOT reflected
	// in the payload: recovery restores the snapshot, then replays WAL
	// segments >= WALSegment.
	WALSegment uint64
	// Payload is the engine state, encoded by the components' SaveState
	// methods.
	Payload []byte
}

// Encode serializes a snapshot into the on-disk format:
//
//	magic(8) | version | fingerprint | epoch | walSegment | len(payload)
//	| payload | crc32c(everything before the crc)
func Encode(s Snapshot) []byte {
	e := NewEncoder()
	e.buf = append(e.buf, Magic...)
	e.Uvarint(Version)
	e.Uvarint(s.Fingerprint)
	e.Varint(int64(s.Epoch))
	e.Uvarint(s.WALSegment)
	e.Uvarint(uint64(len(s.Payload)))
	e.buf = append(e.buf, s.Payload...)
	crc := crc32.Checksum(e.buf, crcTable)
	e.Uvarint(uint64(crc))
	return e.Bytes()
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decode parses and validates the on-disk format. It never panics on
// arbitrary input: truncation, bad magic, unknown versions and checksum
// mismatches all surface as errors (the FuzzCheckpointDecode target pins
// this). The frame layout is fixed by Magic, so the checksum is verified
// before the version: an intact file of another version yields a
// *VersionError, a damaged one a checksum error.
func Decode(data []byte) (Snapshot, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return Snapshot{}, fmt.Errorf("checkpoint: bad magic (not a checkpoint file)")
	}
	d := NewDecoder(data)
	d.off = len(Magic)
	var s Snapshot
	s.Version = d.Uvarint()
	s.Fingerprint = d.Uvarint()
	s.Epoch = int(d.Varint())
	s.WALSegment = d.Uvarint()
	n := d.SliceLen(1)
	if d.Err() != nil {
		return Snapshot{}, d.Err()
	}
	s.Payload = append([]byte(nil), data[d.off:d.off+n]...)
	d.off += n
	crcEnd := d.off
	want := d.Uvarint()
	if d.Err() != nil {
		return Snapshot{}, d.Err()
	}
	if got := uint64(crc32.Checksum(data[:crcEnd], crcTable)); got != want {
		return Snapshot{}, fmt.Errorf("checkpoint: crc mismatch (file %#x, computed %#x)", want, got)
	}
	if s.Version != Version {
		return Snapshot{}, &VersionError{Got: s.Version, Want: Version}
	}
	return s, nil
}

// FileName returns the canonical file name of the checkpoint covering the
// given epoch. Zero-padding keeps lexicographic and numeric order aligned, so
// directory scans need no parsing to find the newest file.
func FileName(epoch int) string {
	if epoch < 0 {
		epoch = 0
	}
	return fmt.Sprintf("checkpoint-%016d.ckpt", epoch)
}

const fileExt = ".ckpt"

// Write atomically persists a snapshot into dir under FileName(s.Epoch): the
// bytes go to a temp file first, are fsynced, and only then renamed into
// place, so a crash mid-write leaves the previous checkpoint untouched and
// never a torn file under the canonical name.
func Write(dir string, s Snapshot) (string, error) {
	data := Encode(s)
	path := filepath.Join(dir, FileName(s.Epoch))
	tmp, err := os.CreateTemp(dir, "checkpoint-*.tmp")
	if err != nil {
		return "", fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("checkpoint: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("checkpoint: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("checkpoint: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("checkpoint: rename into place: %w", err)
	}
	syncDir(dir)
	return path, nil
}

// syncDir fsyncs a directory so a rename survives power loss; best-effort
// (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// SyncDir is the exported form of syncDir for sibling durability layers
// (e.g. the serving layer's session manifests) so the crash-safe directory
// handling lives in exactly one place.
func SyncDir(dir string) { syncDir(dir) }

// WriteFileAtomic persists data under dir/name with the same crash-safety
// contract as Write: temp file, fsync, rename into place, directory fsync. A
// crash mid-write leaves either the previous file or no file — never a torn
// one — and once the call returns the bytes survive power loss.
func WriteFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+"-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: close temp: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: rename into place: %w", err)
	}
	syncDir(dir)
	return nil
}

// Load reads and decodes one checkpoint file.
func Load(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	return Decode(data)
}

// List returns the checkpoint files in dir, oldest first.
func List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ent := range entries {
		name := ent.Name()
		if !ent.IsDir() && strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, fileExt) {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Latest loads the newest valid checkpoint in dir, skipping files that fail
// to decode (a torn or corrupted newest file falls back to its predecessor —
// exactly the behaviour crash recovery needs). ok is false when the directory
// holds no valid checkpoint at all. An intact checkpoint of another version
// is an error, never skipped (see VersionError).
func Latest(dir string) (path string, s Snapshot, ok bool, err error) {
	files, err := List(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", Snapshot{}, false, nil
		}
		return "", Snapshot{}, false, err
	}
	for i := len(files) - 1; i >= 0; i-- {
		snap, err := Load(files[i])
		var verr *VersionError
		if errors.As(err, &verr) {
			return "", Snapshot{}, false, fmt.Errorf("%s: %w", files[i], err)
		}
		if err != nil {
			continue // corrupt or torn; try the previous one
		}
		return files[i], snap, true, nil
	}
	return "", Snapshot{}, false, nil
}

// Prune removes all but the newest keep checkpoint files from dir. It never
// removes the newest file regardless of keep.
func Prune(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	files, err := List(dir)
	if err != nil {
		return err
	}
	if len(files) <= keep {
		return nil
	}
	for _, f := range files[:len(files)-keep] {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	return nil
}
