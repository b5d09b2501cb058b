package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplacesOnlyOnSuccess: a write creates missing directories
// and replaces the file; a failed write leaves the old bytes and no
// temporary file behind.
func TestWriteReplacesOnlyOnSuccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "f")
	put := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := Write(path, put("first")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		put("torn")(w)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "first" {
		t.Errorf("after a failed write the file holds %q (%v), want the old bytes", b, err)
	}
	if err := Write(path, put("second")); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "second" {
		t.Errorf("file holds %q, want second", b)
	}
	if names, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*")); len(names) != 1 {
		t.Errorf("directory holds %v, want only the file", names)
	}
}
