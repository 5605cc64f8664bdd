package cubestore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dwarf"
)

// The write-ahead log makes Append durable before the memtable sees the
// batch. Each WAL generation is one file, wal-<gen>.log; a freeze rotates
// to a fresh generation and the manifest's WALGen records the lowest
// generation still covering unsealed tuples. Each Append batch is framed
// caller-side as one record (all integers little endian):
//
//	crc u32 (over payload) | len u32 | payload
//	payload: count uvarint, then per tuple:
//	    ndims uvarint | ndims × (klen uvarint | key bytes) | measure f64
//
// A generation has one of two layouts.
//
// Appended: the file is opened O_APPEND, records follow each other, and a
// commit group is made durable with fsync. The store opens one at Open,
// and at a freeze when no prepared generation is ready. A crash can only
// tear the last record, so a short or CRC-corrupt record that reaches
// end-of-file ends replay: it was never acknowledged.
//
// Prepared: the store's preparer writes walMagic and zeros up to the
// expected size, syncs the file and its directory entry off the commit
// path, and hands it to the next freeze. The committer overwrites it in
// place from the front and makes each commit group durable with
// fdatasync: the blocks are already allocated and written, so the sync is
// a data flush without a journal commit. Each group is one frame:
//
//	check u32 (CRC-32 over len|crc) | len u32 | crc u32 (over body) | body
//	body: the group's records, back to back
//
// A crash can leave any subset of the last group's sectors written ahead
// of zeros; every frame is synced before the next is written, so only the
// last frame can be torn. A bad frame therefore ends replay cleanly iff no
// intact frame starts anywhere after it, and fails it with ErrCorruptWAL
// otherwise: a frame with an intact one behind it was acknowledged. The
// check word lets replay test each later offset without trusting the bad
// frame's length, and reach a body CRC only where a header checks out.
// Where the bad frame's own header checks out, its length is trusted and
// the search starts past its body, so a frame-shaped key inside a torn
// group is not taken for a later frame.
//
// In both layouts a record that does not parse inside a CRC-valid frame is
// ErrCorruptWAL: it was acknowledged, so silently dropping it would lose
// data.

// ErrCorruptWAL reports damage to an acknowledged WAL record.
var ErrCorruptWAL = errors.New("cubestore: corrupt WAL record")

// ErrBatchTooLarge rejects an Append whose encoded WAL record would exceed
// maxWALRecord — replay would discard such a record as garbage, so writing
// it would break the "no acked tuple lost" invariant. Split the batch.
var ErrBatchTooLarge = errors.New("cubestore: batch exceeds the 1 GiB WAL record limit")

const (
	walPrefix = "wal-"
	walSuffix = ".log"
	// maxWALRecord bounds one record's payload; larger lengths are treated
	// as a torn tail.
	maxWALRecord = 1 << 30
	// walMagic opens every prepared generation. Its last four bytes read as
	// a record length above maxWALRecord, so no appended generation starts
	// with it, and code that knows only the appended layout fails on a
	// prepared file with ErrCorruptWAL instead of misreading it.
	walMagic    = "\x89WAL2\r\n\xff"
	frameHdrLen = 12
	// maxFrameBody bounds one frame's body. A group larger than that is
	// written as several frames, each synced before the next is written.
	maxFrameBody = math.MaxInt32
	// maxPreparedWAL caps a preparation. A generation that outgrows its
	// prepared size extends the file, which is correct, only slower.
	maxPreparedWAL = 8 << 20
	walBufSize     = 1 << 16
)

// walZeros is the one zero buffer every preparation writes from.
var walZeros [walBufSize]byte

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", walPrefix, gen, walSuffix))
}

// walGenOf parses the generation out of a WAL file name.
func walGenOf(name string) (uint64, bool) {
	if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix)
	gen, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// listWALGens returns the generations present in dir, ascending.
func listWALGens(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if gen, ok := walGenOf(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// syncHook, when set by tests (setSyncHook), is called before each WAL
// durability step: op "data" before a commit group's file sync in
// generation gen, op "dir" before the directory sync that makes gen's file
// name durable. An error fails the step as a failed sync would.
var syncHook atomic.Pointer[func(op string, gen uint64) error]

// setSyncHook installs (or with nil clears) the test sync hook.
func setSyncHook(fn func(op string, gen uint64) error) {
	if fn == nil {
		syncHook.Store(nil)
		return
	}
	syncHook.Store(&fn)
}

func hookSync(op string, gen uint64) error {
	fn := syncHook.Load()
	if fn == nil {
		return nil
	}
	return (*fn)(op, gen)
}

// syncWALDir makes the directory entry of generation gen durable.
func syncWALDir(dir string, gen uint64) error {
	if err := hookSync("dir", gen); err != nil {
		return err
	}
	return fsyncDir(dir)
}

// wal is one open generation of the log. Its write buffer is attached by
// the store, which hands one buffer from each generation to the next.
type wal struct {
	gen  uint64
	path string
	file *os.File
	w    *bufio.Writer
	// bytes is the write offset: the file's size for an appended
	// generation, the end of the last frame for a prepared one.
	bytes int64
	// tuples counts the tuples written since the generation was opened.
	tuples int
	// framed marks a prepared generation: one frame per commit group,
	// written in place and synced with datasync.
	framed bool
	// dirPending marks a file created on the commit path whose directory
	// entry is not durable yet; the next sync covers it.
	dirPending bool
	// hdr is writeFrame's header buffer, kept here so that it does not
	// escape to the heap once per group.
	hdr [frameHdrLen]byte
}

// openWAL opens (creating if needed) the appended-layout log file for gen
// and positions appends at its end. The caller attaches the write buffer.
func openWAL(dir string, gen uint64) (*wal, error) {
	path := walPath(dir, gen)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{gen: gen, path: path, file: f, bytes: st.Size()}, nil
}

// prepareWAL creates generation gen in the prepared layout: walMagic, then
// zeros up to size bytes, synced under a temporary name, renamed into place
// and directory-synced, so the file is either absent or complete under its
// final name. The returned generation writes just after the magic. Closing
// abort stops the zero fill between chunks and leaves no file behind.
func prepareWAL(dir string, gen uint64, size int64, abort <-chan struct{}) (*wal, error) {
	f, err := os.CreateTemp(dir, walPrefix+"*"+tmpSuffix)
	if err != nil {
		return nil, err
	}
	name := f.Name()
	fail := func(err error) (*wal, error) {
		f.Close()
		os.Remove(name)
		return nil, err
	}
	if _, err := f.WriteString(walMagic); err != nil {
		return fail(err)
	}
	for off := int64(len(walMagic)); off < size; {
		select {
		case <-abort:
			return fail(ErrClosed)
		default:
		}
		n := min(size-off, int64(len(walZeros)))
		if _, err := f.Write(walZeros[:n]); err != nil {
			return fail(err)
		}
		off += n
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	path := walPath(dir, gen)
	if err := os.Rename(name, path); err != nil {
		return fail(err)
	}
	name = path
	if err := syncWALDir(dir, gen); err != nil {
		return fail(err)
	}
	if _, err := f.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		return fail(err)
	}
	return &wal{gen: gen, path: path, file: f, bytes: int64(len(walMagic)), framed: true}, nil
}

// attach hands the generation the store's write buffer (nil allocates one).
func (l *wal) attach(w *bufio.Writer) {
	if w == nil {
		w = bufio.NewWriterSize(l.file, walBufSize)
	} else {
		w.Reset(l.file)
	}
	l.w = w
}

// walRecPool recycles the per-append record buffer: the WAL frames one
// record per Append, and without pooling every frame allocates (and grows)
// a fresh payload slice on the hot ingest path.
var walRecPool = sync.Pool{New: func() any { return new([]byte) }}

// appendWALRecord frames one batch as crc|len|payload into buf (reusing its
// capacity) and returns the grown slice.
func appendWALRecord(buf []byte, tuples []dwarf.Tuple) []byte {
	rec := append(buf[:0], 0, 0, 0, 0, 0, 0, 0, 0) // crc + len placeholders
	rec = binary.AppendUvarint(rec, uint64(len(tuples)))
	for _, t := range tuples {
		rec = binary.AppendUvarint(rec, uint64(len(t.Dims)))
		for _, k := range t.Dims {
			rec = binary.AppendUvarint(rec, uint64(len(k)))
			rec = append(rec, k...)
		}
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(t.Measure))
	}
	payload := rec[8:]
	binary.LittleEndian.PutUint32(rec[0:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(payload)))
	return rec
}

// commit writes one commit group and, when durable, syncs it, returning
// the time spent syncing. An appended generation takes the group's records
// as they are under one fsync; a prepared one takes them as one frame (as
// several, each synced before the next, only for a group past
// maxFrameBody). A prepared generation written without syncs could tear
// more than its last frame, so NoSync stores never prepare one.
func (l *wal) commit(group []*commitReq, durable bool) (time.Duration, error) {
	var synced time.Duration
	for len(group) > 0 {
		n, err := len(group), error(nil)
		if l.framed {
			n, err = l.writeFrame(group)
		} else {
			for _, r := range group {
				if _, err = l.w.Write(r.rec); err != nil {
					break
				}
				l.bytes += int64(len(r.rec))
			}
		}
		if err != nil {
			return synced, err
		}
		for _, r := range group[:n] {
			l.tuples += len(r.tuples)
		}
		group = group[n:]
		if durable {
			start := time.Now()
			if err := l.sync(); err != nil {
				return synced, err
			}
			synced += time.Since(start)
		}
	}
	return synced, nil
}

// writeFrame writes the longest prefix of group that fits one frame (at
// least one record) and returns its length. The body CRC chains over the
// callers' framed records, so the committer hashes each byte once more and
// copies nothing.
func (l *wal) writeFrame(group []*commitReq) (int, error) {
	n, body, crc := 0, 0, uint32(0)
	for ; n < len(group); n++ {
		rec := group[n].rec
		if n > 0 && body+len(rec) > maxFrameBody {
			break
		}
		body += len(rec)
		crc = crc32.Update(crc, crc32.IEEETable, rec)
	}
	binary.LittleEndian.PutUint32(l.hdr[4:], uint32(body))
	binary.LittleEndian.PutUint32(l.hdr[8:], crc)
	binary.LittleEndian.PutUint32(l.hdr[0:], crc32.ChecksumIEEE(l.hdr[4:]))
	if _, err := l.w.Write(l.hdr[:]); err != nil {
		return 0, err
	}
	for _, r := range group[:n] {
		if _, err := l.w.Write(r.rec); err != nil {
			return 0, err
		}
	}
	l.bytes += int64(frameHdrLen + body)
	return n, nil
}

// sync makes every written record durable: the buffer is flushed, the
// directory entry synced if it is still pending, and the file synced —
// datasync for a prepared generation, fsync for an appended one. One call
// covers every record written since the last sync: the point of group
// commit.
func (l *wal) sync() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if l.dirPending {
		if err := syncWALDir(filepath.Dir(l.path), l.gen); err != nil {
			return err
		}
		l.dirPending = false
	}
	if err := hookSync("data", l.gen); err != nil {
		return err
	}
	if l.framed {
		return datasync(l.file)
	}
	return l.file.Sync()
}

// close flushes buffered records and closes the file.
func (l *wal) close() error {
	flushErr := l.w.Flush()
	closeErr := l.file.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// abandon closes the file handle without flushing — the crash path, used by
// tests to drop a store as a real crash would.
func (l *wal) abandon() { l.file.Close() }

// discard closes and removes a prepared generation nothing was written to.
// Its removal needs no directory sync: a file that comes back after a crash
// replays as empty.
func (l *wal) discard() {
	l.file.Close()
	os.Remove(l.path)
}

// replayWAL streams every intact record's batch in the file at path to fn,
// in order, by the rules of the file's layout (see the top of this file).
// A missing file replays as empty.
func replayWAL(path string, fn func(tuples []dwarf.Tuple) error) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	return replayWALData(f, st.Size(), fn)
}

// replayWALData is replayWAL over the first size bytes of r. No length
// read from the data is trusted past the bytes that remain, so replay
// allocates in proportion to size.
func replayWALData(r io.ReaderAt, size int64, fn func(tuples []dwarf.Tuple) error) error {
	var head [len(walMagic)]byte
	if n, _ := r.ReadAt(head[:], 0); n == len(head) && string(head[:]) == walMagic {
		data := make([]byte, size)
		if _, err := io.ReadFull(io.NewSectionReader(r, 0, size), data); err != nil {
			return err
		}
		return replayFrames(data, fn)
	}
	return replayAppended(io.NewSectionReader(r, 0, size), size, fn)
}

// replayAppended replays an appended generation. A corrupt record with
// more data after it is mid-file corruption of acknowledged records and
// fails with ErrCorruptWAL: dropping the records behind it would silently
// lose acked tuples. (A corrupted length field loses record framing, so a
// length that implausibly points past EOF is likewise only accepted as a
// tail.)
func replayAppended(r io.Reader, size int64, fn func(tuples []dwarf.Tuple) error) error {
	br := bufio.NewReaderSize(r, int(min(size, walBufSize)))
	left := size
	var payload []byte
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil // clean EOF or torn header
		}
		left -= 8
		wantCRC := binary.LittleEndian.Uint32(hdr[0:])
		plen := binary.LittleEndian.Uint32(hdr[4:])
		if plen > maxWALRecord {
			if left == 0 {
				return nil // garbage tail
			}
			return fmt.Errorf("%w: implausible record length %d mid-file", ErrCorruptWAL, plen)
		}
		if int64(plen) > left {
			return nil // torn record at end-of-file
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil // torn record at end-of-file
		}
		left -= int64(plen)
		if crc32.ChecksumIEEE(payload) != wantCRC {
			if left == 0 {
				return nil // corrupt tail: never acknowledged
			}
			return fmt.Errorf("%w: checksum mismatch mid-file", ErrCorruptWAL)
		}
		tuples, err := decodeWALPayload(payload)
		if err != nil {
			return err
		}
		if err := fn(tuples); err != nil {
			return err
		}
	}
}

// replayFrames replays a prepared generation held in data.
func replayFrames(data []byte, fn func(tuples []dwarf.Tuple) error) error {
	off := len(walMagic)
	for {
		body, ok := frameAt(data, off)
		if !ok {
			// A header whose check word holds gives the bad frame's true
			// length, and the next frame could only start right after it:
			// frame-shaped bytes inside the body (keys can hold any bytes)
			// are not a frame.
			from := off + 1
			if n, ok := frameHeader(data, off); ok {
				from = off + frameHdrLen + n
			}
			if next := nextFrame(data, from); next >= 0 {
				return fmt.Errorf("%w: bad frame at offset %d, intact frame at %d after it", ErrCorruptWAL, off, next)
			}
			return nil // torn last group, or the zeros past it
		}
		if err := replayBody(body, fn); err != nil {
			return err
		}
		off += frameHdrLen + len(body)
	}
}

// frameAt returns the body of the intact frame starting at off, if one
// does: a length that fits the data, a matching check word and a matching
// body CRC, tested in that order so that most offsets cost no CRC at all.
func frameAt(data []byte, off int) ([]byte, bool) {
	if len(data)-off < frameHdrLen ||
		uint64(binary.LittleEndian.Uint32(data[off+4:])) > uint64(len(data)-off-frameHdrLen) {
		return nil, false
	}
	n, ok := frameHeader(data, off)
	if !ok {
		return nil, false
	}
	body := data[off+frameHdrLen : off+frameHdrLen+n]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[off+8:]) {
		return nil, false
	}
	return body, true
}

// frameHeader returns the body length of the frame header at off if the
// length is not zero and the check word holds. The body may still run past
// the data.
func frameHeader(data []byte, off int) (int, bool) {
	if len(data)-off < frameHdrLen {
		return 0, false
	}
	h := data[off : off+frameHdrLen]
	n := binary.LittleEndian.Uint32(h[4:])
	if n == 0 || binary.LittleEndian.Uint32(h) != crc32.ChecksumIEEE(h[4:]) {
		return 0, false
	}
	return int(n), true
}

// nextFrame returns the offset of the first intact frame starting at or
// after from, or -1. A frame's length field is never zero, so a run of
// zeros (the unwritten rest of a prepared file) is skipped in one step.
func nextFrame(data []byte, from int) int {
	for off := from; len(data)-off >= frameHdrLen; off++ {
		if l := data[off+4 : off+8]; l[0]|l[1]|l[2]|l[3] == 0 {
			nz := off + 8
			for nz < len(data) && data[nz] == 0 {
				nz++
			}
			// The first offset whose length field reaches data[nz] is
			// nz-7; the loop's increment lands there.
			off = max(off, nz-8)
			continue
		}
		if _, ok := frameAt(data, off); ok {
			return off
		}
	}
	return -1
}

// replayBody hands each record of an intact frame's body to fn. The frame's
// CRC held, so a record that does not parse is damage inside an
// acknowledged frame.
func replayBody(body []byte, fn func(tuples []dwarf.Tuple) error) error {
	for len(body) > 0 {
		if len(body) < 8 {
			return fmt.Errorf("%w: %d stray bytes in a frame", ErrCorruptWAL, len(body))
		}
		plen := binary.LittleEndian.Uint32(body[4:])
		if uint64(plen) > uint64(len(body)-8) {
			return fmt.Errorf("%w: record length %d overruns its frame", ErrCorruptWAL, plen)
		}
		payload := body[8 : 8+plen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(body[0:]) {
			return fmt.Errorf("%w: record checksum mismatch in an intact frame", ErrCorruptWAL)
		}
		tuples, err := decodeWALPayload(payload)
		if err != nil {
			return err
		}
		if err := fn(tuples); err != nil {
			return err
		}
		body = body[8+plen:]
	}
	return nil
}

func decodeWALPayload(payload []byte) ([]dwarf.Tuple, error) {
	count, n := binary.Uvarint(payload)
	// A tuple encodes to at least 10 bytes (ndims, one 1-byte key length,
	// the 8-byte measure), which bounds count — and therefore the slice
	// allocation — by the payload size; a corrupt CRC-valid frame yields a
	// clean error, never an OOM-sized make.
	if n <= 0 || count > uint64(len(payload))/10+1 {
		return nil, fmt.Errorf("%w: bad tuple count", ErrCorruptWAL)
	}
	payload = payload[n:]
	tuples := make([]dwarf.Tuple, 0, min(count, 1<<16))
	for i := uint64(0); i < count; i++ {
		ndims, n := binary.Uvarint(payload)
		// Each dimension needs at least its 1-byte key length.
		if n <= 0 || ndims > uint64(len(payload)-n) {
			return nil, fmt.Errorf("%w: bad dim count", ErrCorruptWAL)
		}
		payload = payload[n:]
		// Grow dims as keys actually parse rather than trusting the claimed
		// ndims with one up-front allocation.
		dims := make([]string, 0, min(ndims, 64))
		for d := uint64(0); d < ndims; d++ {
			klen, n := binary.Uvarint(payload)
			if n <= 0 || klen > uint64(len(payload)-n) {
				return nil, fmt.Errorf("%w: bad key", ErrCorruptWAL)
			}
			dims = append(dims, string(payload[n:n+int(klen)]))
			payload = payload[n+int(klen):]
		}
		if len(payload) < 8 {
			return nil, fmt.Errorf("%w: truncated measure", ErrCorruptWAL)
		}
		measure := math.Float64frombits(binary.LittleEndian.Uint64(payload))
		payload = payload[8:]
		tuples = append(tuples, dwarf.Tuple{Dims: dims, Measure: measure})
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptWAL, len(payload))
	}
	return tuples, nil
}

// fsyncDir flushes directory metadata (file creations, renames, deletions)
// so the recovery invariants hold across power loss, not just process death.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
