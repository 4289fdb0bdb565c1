package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestFailedWriteLeavesPreviousContents: a writer that fails part-way
// leaves no temp file behind and the previous contents under the final
// name; a writer that succeeds replaces them.
func TestFailedWriteLeavesPreviousContents(t *testing.T) {
	dir := t.TempDir()
	write := func(data string, fail error) error {
		return WriteFile(dir, "state.bin", func(w io.Writer) error {
			if _, err := io.WriteString(w, data); err != nil {
				return err
			}
			return fail
		})
	}
	if err := write("first", nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	if err := write("second, torn", boom); !errors.Is(err, boom) {
		t.Fatalf("failing writer returned %v, want %v", err, boom)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.bin" {
		t.Fatalf("directory after a failed write holds %v, want only state.bin", entries)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "state.bin")); err != nil || string(got) != "first" {
		t.Fatalf("previous contents not intact: %q, %v", got, err)
	}
	if err := write("third", nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "state.bin")); string(got) != "third" {
		t.Fatalf("successful write left %q", got)
	}
}
