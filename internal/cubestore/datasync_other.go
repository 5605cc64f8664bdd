//go:build !linux

package cubestore

import "os"

// datasync falls back to a full fsync where fdatasync(2) is not available.
func datasync(f *os.File) error { return f.Sync() }
