package dwarf

import "fmt"

// ViewFile is a CubeView backed by a file region. On platforms with mmap
// support the file's pages are mapped read-only and shared with the kernel
// page cache — opening a multi-gigabyte cube costs no heap — with a
// transparent fallback to reading the file into memory elsewhere (or when
// mapping fails). Close releases the mapping; the view must not be used
// after Close.
type ViewFile struct {
	*CubeView
	data   []byte
	mapped bool
}

// OpenViewFile opens an encoded cube file as a zero-copy view. The
// checksum is verified unless the file carries a v2 offset trailer, in
// which case only the (small) trailer is validated and the open is O(1) in
// the file size; call VerifyEncoded explicitly to audit such a file.
func OpenViewFile(path string) (*ViewFile, error) { return openViewFile(path, false) }

// OpenViewFileVerified is OpenViewFile with OpenView's full checksum pass
// over the mapped bytes even when an offset trailer is present, for
// callers that must reject a corrupt file at open rather than risk a wrong
// answer later.
func OpenViewFileVerified(path string) (*ViewFile, error) { return openViewFile(path, true) }

func openViewFile(path string, verify bool) (*ViewFile, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	// With a trailer the payload checksum pass is skipped unless asked for:
	// an O(1) open is the point of the trailer, and every query remains
	// bounds-checked.
	var v *CubeView
	if verify || !HasOffsetTrailer(data) {
		v, err = OpenView(data)
	} else {
		v, err = OpenViewTrusted(data)
	}
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &ViewFile{CubeView: v, data: data, mapped: mapped}, nil
}

// Mapped reports whether the view is served from an mmap'd region rather
// than a heap copy of the file.
func (f *ViewFile) Mapped() bool { return f.mapped }

// Size returns the file's length in bytes, trailers included.
func (f *ViewFile) Size() int { return len(f.data) }

// Close releases the file mapping, if any. The view must not be used after
// Close returns.
func (f *ViewFile) Close() error {
	data := f.data
	f.data, f.CubeView = nil, nil
	if f.mapped && data != nil {
		return unmapFile(data)
	}
	return nil
}
