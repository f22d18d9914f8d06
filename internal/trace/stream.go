package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"repro/internal/sim"
	"repro/internal/workload"
)

// FSBT v2 is a streaming frame format:
//
//	magic "FSBT" 0x02, then a sequence of uvarint-tagged frames:
//	  tag 2 (path): uvarint length, then the path bytes. The path is
//	        appended to a growing dictionary; records reference paths
//	        by dictionary index, so each path is stored once, defined
//	        just before its first use.
//	  tag 1 (record): uvarint at-delta (non-negative — v2 traces are
//	        submission-time ordered by construction), uvarint kind,
//	        uvarint path index, varint offset, varint size,
//	        uvarint owner, uvarint stream.
//	  tag 0 (end): uvarint total record count, which must match the
//	        records seen. A stream that ends without the end frame is
//	        truncated and fails loudly.
//
// There is no up-front path table or record count, so a writer can
// stream records as they happen and a reader never allocates
// proportionally to a length claimed by the input — the property the
// decoder fuzzer locks in.
var magicV2 = [5]byte{'F', 'S', 'B', 'T', 2}

// Frame tags.
const (
	frameEnd    = 0
	frameRecord = 1
	framePath   = 2
)

// Decoder guards: implausible sizes fail loudly before any allocation
// depends on them.
const (
	maxPaths   = 1 << 24
	maxPathLen = 4096
	maxRecords = 1 << 40
)

// Writer streams records into the FSBT v2 format. Records must
// arrive in non-decreasing At order (Recorder.Trace and WriteBinary
// guarantee it); Close emits the end frame.
type Writer struct {
	bw      *bufio.Writer
	pathIdx map[string]uint64
	prevAt  sim.Time
	n       uint64
	err     error
	vbuf    [binary.MaxVarintLen64]byte // reused: varints must not allocate per record
}

// NewWriter starts a v2 stream on w. The magic goes into the write
// buffer at once and reaches w with the first flush, at the latest on
// Close.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	tw := &Writer{bw: bw, pathIdx: make(map[string]uint64)}
	if _, err := bw.Write(magicV2[:]); err != nil {
		tw.err = err
	}
	return tw
}

func (w *Writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.vbuf[:], v)
	_, w.err = w.bw.Write(w.vbuf[:n])
}

func (w *Writer) varint(v int64) {
	if w.err != nil {
		return
	}
	n := binary.PutVarint(w.vbuf[:], v)
	_, w.err = w.bw.Write(w.vbuf[:n])
}

// Write appends one record.
func (w *Writer) Write(rec Record) error {
	if w.err != nil {
		return w.err
	}
	if rec.At < w.prevAt {
		w.err = fmt.Errorf("trace: v2 records must be time-ordered: %d after %d",
			int64(rec.At), int64(w.prevAt))
		return w.err
	}
	if rec.At < 0 {
		w.err = fmt.Errorf("trace: negative record time %d", int64(rec.At))
		return w.err
	}
	if len(rec.Path) > maxPathLen {
		w.err = fmt.Errorf("trace: path length %d exceeds %d", len(rec.Path), maxPathLen)
		return w.err
	}
	idx, ok := w.pathIdx[rec.Path]
	if !ok {
		idx = uint64(len(w.pathIdx))
		if idx >= maxPaths {
			w.err = fmt.Errorf("trace: path dictionary exceeds %d entries", maxPaths)
			return w.err
		}
		w.pathIdx[rec.Path] = idx
		w.uvarint(framePath)
		w.uvarint(uint64(len(rec.Path)))
		if w.err == nil {
			_, w.err = w.bw.WriteString(rec.Path)
		}
	}
	w.uvarint(frameRecord)
	w.uvarint(uint64(rec.At - w.prevAt))
	w.uvarint(uint64(rec.Kind))
	w.uvarint(idx)
	w.varint(rec.Offset)
	w.varint(rec.Size)
	w.uvarint(uint64(rec.Owner))
	w.uvarint(uint64(rec.Stream))
	if w.err == nil {
		w.prevAt = rec.At
		w.n++
	}
	return w.err
}

// Close emits the end frame and flushes. The Writer is unusable
// afterwards.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	w.uvarint(frameEnd)
	w.uvarint(w.n)
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Reader streams records out of an FSBT v2 stream in bounded memory:
// state is the path dictionary (O(distinct paths), inherent to the
// format) plus fixed-size cursors — never O(records).
type Reader struct {
	br    *bufio.Reader
	paths []string
	at    sim.Time
	n     uint64
	done  bool
}

// OpenReader checks the magic and prepares a streaming reader. An
// FSBT header with any version byte other than 2 fails with an error
// naming that version.
func OpenReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var m [5]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	switch {
	case m == magicV2:
		return &Reader{br: br}, nil
	case string(m[:4]) == "FSBT":
		return nil, fmt.Errorf("trace: unsupported FSBT version %d (only version 2 is readable)", m[4])
	}
	return nil, errors.New("trace: bad magic (not an FSBT trace)")
}

// truncated maps a mid-structure EOF to an explicit error: a clean
// io.EOF from the decoder would read as a well-formed end of trace.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: truncated input: %w", err)
}

// Next returns the next record, or io.EOF at a well-formed end of
// trace. Any malformed or truncated input returns a non-EOF error.
func (r *Reader) Next() (Record, error) {
	if r.done {
		return Record{}, io.EOF
	}
	for {
		tag, err := binary.ReadUvarint(r.br)
		if err != nil {
			return Record{}, truncated(err)
		}
		switch tag {
		case framePath:
			n, err := binary.ReadUvarint(r.br)
			if err != nil {
				return Record{}, truncated(err)
			}
			if n > maxPathLen {
				return Record{}, fmt.Errorf("trace: implausible path length %d", n)
			}
			if len(r.paths) >= maxPaths {
				return Record{}, fmt.Errorf("trace: path dictionary exceeds %d entries", maxPaths)
			}
			b := make([]byte, n)
			if _, err := io.ReadFull(r.br, b); err != nil {
				return Record{}, truncated(err)
			}
			r.paths = append(r.paths, string(b))
		case frameRecord:
			d, err := binary.ReadUvarint(r.br)
			if err != nil {
				return Record{}, truncated(err)
			}
			// The delta is unsigned, so a negative delta cannot be
			// expressed; guard the sum against overflow wrapping instead.
			at := r.at + sim.Time(d)
			if at < r.at {
				return Record{}, fmt.Errorf("trace: record time overflows")
			}
			r.at = at
			kind, err := binary.ReadUvarint(r.br)
			if err != nil {
				return Record{}, truncated(err)
			}
			pi, err := binary.ReadUvarint(r.br)
			if err != nil {
				return Record{}, truncated(err)
			}
			if pi >= uint64(len(r.paths)) {
				return Record{}, fmt.Errorf("trace: record references path %d of %d", pi, len(r.paths))
			}
			off, err := binary.ReadVarint(r.br)
			if err != nil {
				return Record{}, truncated(err)
			}
			size, err := binary.ReadVarint(r.br)
			if err != nil {
				return Record{}, truncated(err)
			}
			owner, err := binary.ReadUvarint(r.br)
			if err != nil {
				return Record{}, truncated(err)
			}
			stream, err := binary.ReadUvarint(r.br)
			if err != nil {
				return Record{}, truncated(err)
			}
			if owner > 1<<30 || stream > 1<<30 {
				return Record{}, fmt.Errorf("trace: implausible owner %d / stream %d", owner, stream)
			}
			r.n++
			if r.n > maxRecords {
				return Record{}, fmt.Errorf("trace: implausible record count")
			}
			return Record{
				At: r.at, Kind: workload.OpKind(kind), Path: r.paths[pi],
				Offset: off, Size: size, Owner: int(owner), Stream: int(stream),
			}, nil
		case frameEnd:
			n, err := binary.ReadUvarint(r.br)
			if err != nil {
				return Record{}, truncated(err)
			}
			if n != r.n {
				return Record{}, fmt.Errorf("trace: end frame count %d, read %d records", n, r.n)
			}
			r.done = true
			return Record{}, io.EOF
		default:
			return Record{}, fmt.Errorf("trace: unknown frame tag %d", tag)
		}
	}
}

// --- sources -----------------------------------------------------------

// Iterator streams records; Next returns io.EOF at a clean end.
type Iterator interface {
	Next() (Record, error)
	Close() error
}

// Source opens fresh record iterators over one trace. Replay opens a
// source several times (pre-scan, dispatch, one per stream in afap
// mode), so Open must be repeatable and each iterator independent.
type Source interface {
	Open() (Iterator, error)
}

// fileSource streams a trace file.
type fileSource struct{ path string }

// FileSource returns a Source reading the FSBT v2 trace file at path.
// Records stream straight off disk: replaying a million-record file
// never builds a []Record.
func FileSource(path string) Source { return fileSource{path} }

type fileIterator struct {
	f *os.File
	r *Reader
}

func (s fileSource) Open() (Iterator, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	r, err := OpenReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileIterator{f: f, r: r}, nil
}

func (it *fileIterator) Next() (Record, error) { return it.r.Next() }
func (it *fileIterator) Close() error          { return it.f.Close() }

// memorySource iterates an in-memory trace.
type memorySource struct{ t *Trace }

// MemorySource returns a Source over an in-memory trace. The records
// are iterated as-is (no sorting): callers replaying a hand-built
// trace get exactly the order they wrote.
func MemorySource(t *Trace) Source { return memorySource{t} }

type memoryIterator struct {
	recs []Record
	i    int
}

func (s memorySource) Open() (Iterator, error) {
	return &memoryIterator{recs: s.t.Records}, nil
}

func (it *memoryIterator) Next() (Record, error) {
	if it.i >= len(it.recs) {
		return Record{}, io.EOF
	}
	rec := it.recs[it.i]
	it.i++
	return rec, nil
}

func (it *memoryIterator) Close() error { return nil }

// --- scan + digest -----------------------------------------------------

// Scan summarizes one pass over a trace: the facts replay needs up
// front (streams, span, the pre-existing namespace) and the content
// digest warehouse fingerprints fold in. Memory is O(distinct paths +
// streams) — the same order as any reader's path dictionary.
type Scan struct {
	// Records is the total record count.
	Records int64
	// Span is the largest submission time (the trace's duration).
	Span sim.Time
	// Streams lists the distinct stream ids, ascending.
	Streams []int
	// Extents maps each file path the trace references without first
	// creating it to the largest byte extent its reads address (0 when
	// the path is only opened, written, stat'd, or deleted). Replay
	// Setup pre-creates these files at that size — the namespace the
	// traced system already had — so replayed reads perform the I/O
	// the captured reads did instead of hitting holes in empty
	// lazily-created files. Paths the trace itself creates first are
	// absent.
	Extents map[string]int64
	// Dirs lists directories the trace lists without first making
	// them, sorted.
	Dirs []string
	// Digest identifies the trace content: an order-insensitive hash
	// over every record's canonical fields. Warehouse fingerprints key
	// traced runs by what was replayed, not by record order, and the
	// records already archived carry digests of this exact algorithm.
	Digest string
}

// ScanSource runs a full pass over src.
func ScanSource(src Source) (Scan, error) {
	it, err := src.Open()
	if err != nil {
		return Scan{}, err
	}
	defer it.Close()
	var sc Scan
	var sumA, sumB uint64
	streams := map[int]bool{}
	extents := map[string]int64{}
	dirSet := map[string]bool{}
	selfMade := map[string]bool{}
	hb := make([]byte, 0, 256)
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Scan{}, err
		}
		sc.Records++
		if rec.At > sc.Span {
			sc.Span = rec.At
		}
		streams[rec.Stream] = true
		// Namespace reconstruction: the first reference to a path
		// decides whether the capture assumed it pre-existed.
		if p := rec.Path; p != "" && rec.Kind != workload.OpThink {
			_, isFile := extents[p]
			known := isFile || dirSet[p] || selfMade[p]
			switch rec.Kind {
			case workload.OpCreate, workload.OpMkdir:
				if !known {
					selfMade[p] = true
				}
			case workload.OpReadDir:
				if !known {
					dirSet[p] = true
				}
			case workload.OpReadRand, workload.OpReadSeq, workload.OpReadWholeFile:
				if !selfMade[p] && !dirSet[p] {
					ext := rec.Offset + rec.Size
					if ext < 0 {
						ext = 0
					}
					if cur, ok := extents[p]; !ok || ext > cur {
						extents[p] = ext
					}
				}
			default:
				if !known {
					extents[p] = 0
				}
			}
		}
		// Canonical record encoding "at|kind|path|off|size|owner|stream"
		// built with an amortized buffer: the scan runs once per replay
		// over possibly millions of records and must not allocate per
		// record.
		hb = hb[:0]
		hb = strconv.AppendInt(hb, int64(rec.At), 10)
		hb = append(hb, '|')
		hb = strconv.AppendInt(hb, int64(rec.Kind), 10)
		hb = append(hb, '|')
		hb = append(hb, rec.Path...)
		hb = append(hb, '|')
		hb = strconv.AppendInt(hb, rec.Offset, 10)
		hb = append(hb, '|')
		hb = strconv.AppendInt(hb, rec.Size, 10)
		hb = append(hb, '|')
		hb = strconv.AppendInt(hb, int64(rec.Owner), 10)
		hb = append(hb, '|')
		hb = strconv.AppendInt(hb, int64(rec.Stream), 10)
		h := sha256.Sum256(hb)
		sumA += binary.LittleEndian.Uint64(h[0:8])
		sumB += binary.LittleEndian.Uint64(h[8:16])
	}
	sc.Streams = make([]int, 0, len(streams))
	for s := range streams {
		sc.Streams = append(sc.Streams, s)
	}
	sort.Ints(sc.Streams)
	sc.Extents = extents
	sc.Dirs = make([]string, 0, len(dirSet))
	for d := range dirSet {
		sc.Dirs = append(sc.Dirs, d)
	}
	sort.Strings(sc.Dirs)
	sc.Digest = fmt.Sprintf("%016x%016x", sumA, sumB)
	return sc, nil
}
