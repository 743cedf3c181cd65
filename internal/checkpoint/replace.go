package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// tempInfix separates a replaced file's name from the random decimal
// suffix os.CreateTemp appends: run.ckpt is written as run.ckpt.tmp123456.
const tempInfix = ".tmp"

// ReplaceFile replaces path with what write produces, atomically and
// durably: write to a temporary file in the same directory, fsync it,
// rename over the target, then fsync the directory. A crash at any point
// leaves either the previous file or the new one — never a torn or
// zero-length file (a rename alone is atomic in the namespace but not
// durable: after a power loss the directory entry can point at a file whose
// data never reached disk). A failed replace removes its temporary file; a
// killed one leaves it for RemoveTemps.
func ReplaceFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+tempInfix+"*")
	if err != nil {
		return fmt.Errorf("checkpoint: replacing %s: %w", path, err)
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: replacing %s: %w", path, err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-created or just-renamed entry
// survives a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: syncing directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing directory: %w", err)
	}
	return nil
}

// RemoveTemps deletes the temporary files that ReplaceFile calls killed
// between create and rename left in dir. It touches only regular files
// named <target>.tmp<digits>; nothing ever reads one, so removing them is
// safe whenever no ReplaceFile into dir is in flight.
func RemoveTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: removing temporary files: %w", err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || !isTempName(e.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("checkpoint: removing temporary files: %w", err)
		}
	}
	return nil
}

// isTempName reports whether name is a ReplaceFile temporary: a non-empty
// target name, tempInfix, then one or more decimal digits.
func isTempName(name string) bool {
	i := strings.LastIndex(name, tempInfix)
	if i <= 0 {
		return false
	}
	digits := name[i+len(tempInfix):]
	return digits != "" && strings.Trim(digits, "0123456789") == ""
}
