package results

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/sim"
)

// QuarantineDir is the subdirectory of a store that corrupt entries
// are moved into for post-mortem inspection.
const QuarantineDir = "quarantine"

// defaultQuarantineBudget caps the quarantine directory: sustained
// corruption (fault injection, or a genuinely rotting disk) must not
// grow it without bound. Oldest entries are deleted first — recent
// corruption is the evidence worth keeping.
const defaultQuarantineBudget = 64 << 20

// Disk is the store's two file operations, an interface so fault
// injection can interpose on every read and write; OSDisk is the
// production implementation.
type Disk interface {
	// Read returns the file's bytes (errors satisfying
	// errors.Is(err, fs.ErrNotExist) mean a plain miss).
	Read(path string) ([]byte, error)
	// Write atomically replaces path with data, creating parent
	// directories as needed.
	Write(path string, data []byte) error
}

// OSDisk is the production Disk: os.ReadFile and atomicfile.Write.
type OSDisk struct{}

// Read implements Disk.
func (OSDisk) Read(path string) ([]byte, error) { return os.ReadFile(path) }

// Write implements Disk.
func (OSDisk) Write(path string, data []byte) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Store is a directory of finished cells, one <fingerprint>.psbc entry
// each. A fingerprint is a pure function of the job and sim.Result
// round-trips JSON losslessly, so a stored result renders
// byte-identically to a fresh simulation. Entries are written by
// temp-and-rename and checksummed on read; a corrupt entry is moved
// into the quarantine subdirectory and reported as a miss, so the
// caller re-simulates and overwrites it. Safe for concurrent use; set
// the fields before the first Load or Save.
type Store struct {
	// Dir holds the entries.
	Dir string
	// Disk performs every read and write of an entry.
	Disk Disk
	// QuarantineBudget caps the quarantine directory in bytes.
	QuarantineBudget int64

	// sweepMu serializes the quarantine's garbage collector.
	sweepMu sync.Mutex
}

// New returns the store rooted at dir, on the real disk with the
// default quarantine budget. Nothing touches dir until the first Load
// or Save.
func New(dir string) *Store {
	return &Store{Dir: dir, Disk: OSDisk{}, QuarantineBudget: defaultQuarantineBudget}
}

// Path is the fingerprint's entry file.
func (s *Store) Path(fp string) string {
	return filepath.Join(s.Dir, fp+".psbc")
}

// Load returns the result stored under fp. A missing entry is an error
// satisfying errors.Is(err, fs.ErrNotExist). An entry that fails
// validation is quarantined and reported as a *CorruptError. Any other
// error is an I/O failure reaching the bytes.
func (s *Store) Load(fp string) (sim.Result, error) {
	b, err := s.Disk.Read(s.Path(fp))
	if err != nil {
		return sim.Result{}, err
	}
	res, err := DecodeEntry(b)
	if err != nil {
		return sim.Result{}, s.quarantine(fp, len(b), err)
	}
	return res, nil
}

// Save stores res as fp's entry, replacing any earlier one.
func (s *Store) Save(fp string, res sim.Result) error {
	return s.Disk.Write(s.Path(fp), EncodeEntry(res))
}

// CorruptError reports an entry that failed validation on Load. Load
// has already moved it into the quarantine directory, or deleted it if
// the move failed, and swept the directory back under its budget.
type CorruptError struct {
	Fingerprint string
	// Size is the corrupt entry's length in bytes.
	Size int
	// Err is the validation failure; it wraps ErrCorrupt.
	Err error
	// MovedTo is the quarantined file, or "" when the entry was
	// deleted instead.
	MovedTo string
	// Sweep is what the quarantine's garbage collector then removed.
	Sweep Sweep
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("results: entry %s: %v", e.Fingerprint, e.Err)
}

// Unwrap exposes the validation failure to errors.Is.
func (e *CorruptError) Unwrap() error { return e.Err }

// Sweep reports one oldest-first pass of the quarantine's garbage
// collector.
type Sweep struct {
	Evicted   int   // files deleted
	Freed     int64 // bytes deleted
	Remaining int64 // bytes left
}

// quarantine moves a corrupt entry into the quarantine subdirectory
// (best-effort; removed outright if the move fails) and sweeps the
// directory.
func (s *Store) quarantine(fp string, size int, cause error) *CorruptError {
	src := s.Path(fp)
	qdir := filepath.Join(s.Dir, QuarantineDir)
	dst := filepath.Join(qdir, filepath.Base(src))
	err := os.MkdirAll(qdir, 0o755)
	if err == nil {
		err = os.Rename(src, dst)
	}
	if err != nil {
		os.Remove(src)
		dst = ""
	}
	return &CorruptError{Fingerprint: fp, Size: size, Err: cause, MovedTo: dst, Sweep: s.sweep()}
}

// sweep keeps the quarantine directory within its byte budget by
// deleting the oldest entries first, so sustained corruption keeps the
// freshest evidence and bounded disk usage. Failures are best-effort:
// the sweep must never fail a read.
func (s *Store) sweep() Sweep {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	var out Sweep
	qdir := filepath.Join(s.Dir, QuarantineDir)
	entries, err := os.ReadDir(qdir)
	if err != nil {
		return out
	}
	type qfile struct {
		name string
		size int64
		mod  time.Time
	}
	var files []qfile
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		files = append(files, qfile{e.Name(), info.Size(), info.ModTime()})
		out.Remaining += info.Size()
	}
	if out.Remaining <= s.QuarantineBudget {
		return out
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for _, f := range files {
		if out.Remaining <= s.QuarantineBudget {
			break
		}
		if os.Remove(filepath.Join(qdir, f.name)) == nil {
			out.Remaining -= f.size
			out.Freed += f.size
			out.Evicted++
		}
	}
	return out
}
