// Package atomicfile writes files by temp-and-rename, so a crashed or
// concurrent writer never leaves a torn file where a reader looks. The
// result store, the instruction recordings and the sampling
// checkpoints all persist through it.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with the bytes write emits. It creates path's
// directory if needed and writes a temporary file beside path, which
// it renames into place only if write and the close both succeed.
// Otherwise it removes the temporary file and leaves path untouched.
func Write(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
