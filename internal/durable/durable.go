// Package durable holds the one write sequence every persisted file of the
// system goes through — offload records, spool records, the manager
// snapshot and the root's dedup table: a crash at any point leaves either
// the previous contents or the new ones under the final name, never a torn
// file, and once the call returns the new contents survive a power cut.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile replaces dir/name with what write produces: create a temp file
// "<name>.tmp-*" in dir, write, fsync it, close it, rename it over the final
// name, fsync dir. The directory sync is load-bearing: rename alone only
// updates the in-memory dentry cache, so without it a power cut shortly
// after could silently lose the file — fatal for an evicted stream whose
// in-memory counters were already dropped. On any failure before the rename
// the temp file is removed and the previous contents are untouched. A temp
// file orphaned by a hard crash keeps the "<name>.tmp-<digits>" shape (no
// dot after ".tmp-"), which the stale-temp sweeps of each directory's owner
// match on.
func WriteFile(dir, name string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename inside it is
// durable, not merely visible.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
