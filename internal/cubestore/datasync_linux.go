//go:build linux

package cubestore

import (
	"os"
	"syscall"
)

// datasync flushes f's data to stable storage, with only the metadata
// needed to read it back (the size, if the file grew): fdatasync(2). Over
// blocks that are already allocated and written, as in a prepared WAL
// generation, that is a plain data flush with no journal commit.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err == nil {
			return nil
		}
		if err != syscall.EINTR {
			return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
		}
	}
}
