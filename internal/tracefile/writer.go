package tracefile

import (
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// Sticky writer errors. Sentinels, not formatted errors: Append sits on
// the cluster step path (a hotalloc root) and must not construct
// anything per call.
var (
	// ErrSeriesRange reports an Append with a series index outside the
	// declared schema.
	ErrSeriesRange = errors.New("tracefile: series index outside the declared schema")
	// ErrRecordTooLarge reports an Event whose text cannot fit in one
	// chunk.
	ErrRecordTooLarge = errors.New("tracefile: event record larger than a chunk")
	// ErrClosed reports use of a closed writer.
	ErrClosed = errors.New("tracefile: writer is closed")
)

// maxRecordLen bounds one encoded sample record: three varints of at
// most 10 bytes each, rounded up. The chunk buffer carries this much
// spare capacity so encoding never grows it.
const maxRecordLen = 32

// chunkBytes is the raw (uncompressed) payload size at which a chunk
// is sealed.
const chunkBytes = 64 << 10

// Writer streams samples and events to an underlying io.Writer in the
// tracefile format. Records are delta-encoded into one chunk buffer,
// allocated by NewWriter. When it fills, or the record kind changes,
// the appending goroutine seals the chunk: CRC, optional compression
// and the write to the destination. So when an Append or Event that
// seals returns, the destination holds that chunk, and a run that dies
// without Close loses only the open chunk. Append and Event allocate
// nothing in steady state.
//
// A Writer is not safe for concurrent use: the cluster feeds it from
// the serial controller phase, which both serializes access and keeps
// the byte stream identical at every worker count. Errors stick: the
// first encode, compression or write failure is reported by Close
// (and every later Append is a no-op), mirroring bufio.Writer.
type Writer struct {
	dst       io.Writer
	sealBytes int

	// The open chunk. buf holds its encoded records; its capacity is
	// sealBytes+maxRecordLen.
	buf   []byte
	kind  byte
	count uint32
	base  int64
	minT  int64
	maxT  int64

	// Encode state, reset at every chunk boundary so each chunk
	// decodes independently of its predecessors.
	prevT    int64
	prevBits []uint64

	// err is the first failure; after Close it is ErrClosed.
	err error

	off     int64 // bytes written to dst so far
	index   []indexEntry
	comp    *flate.Writer // nil when chunks are stored raw
	compBuf sliceWriter
	hdrBuf  [chunkHeaderLen]byte
}

// sliceWriter is the reusable compression sink.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	//thermlint:allow hotalloc -- grows to the largest compressed chunk once, then reused
	s.b = append(s.b, p...)
	return len(p), nil
}

// NewWriter writes the file header for the declared schema to dst and
// returns a Writer streaming 64 KiB chunks to it, DEFLATE-compressed
// when compress is set. The schema is fixed for the life of the file:
// Append addresses series by index into it. dst is typically an
// *os.File; the Writer batches whole chunks, so no bufio layer is
// needed.
func NewWriter(dst io.Writer, schema []SeriesDef, compress bool) (*Writer, error) {
	return newWriter(dst, schema, compress, chunkBytes)
}

// newWriter is NewWriter with the seal size as a parameter, so tests
// can make many small chunks.
func newWriter(dst io.Writer, schema []SeriesDef, compress bool, sealBytes int) (*Writer, error) {
	var flags uint16
	if compress {
		flags |= flagCompressed
	}
	hdr, err := encodeHeader(flags, schema)
	if err != nil {
		return nil, err
	}
	if _, err := dst.Write(hdr); err != nil {
		return nil, fmt.Errorf("tracefile: writing header: %w", err)
	}
	w := &Writer{
		dst:       dst,
		sealBytes: sealBytes,
		buf:       make([]byte, 0, sealBytes+maxRecordLen),
		prevBits:  make([]uint64, len(schema)),
		off:       int64(len(hdr)),
	}
	if compress {
		// BestSpeed: the delta+varint payload leaves little entropy
		// for higher levels to find, and sealing runs on the step
		// path.
		w.comp, _ = flate.NewWriter(&w.compBuf, flate.BestSpeed)
	}
	return w, nil
}

// Append records one sample of the series at index series (into the
// schema passed to NewWriter). It performs no heap allocation; when it
// seals a full chunk it writes that chunk before returning. Errors
// stick and are reported by Close.
func (w *Writer) Append(series int, t time.Duration, v float64) {
	//thermlint:allow errswallow -- bufio.Writer discipline: errors stick in w.err and Close reports them
	if w.err != nil {
		return
	}
	if series < 0 || series >= len(w.prevBits) {
		w.err = ErrSeriesRange
		return
	}
	ts := w.open(kindSamples, maxRecordLen, t)
	n := len(w.buf)
	b := w.buf[n:cap(w.buf)]
	k := binary.PutUvarint(b, uint64(series))
	k += binary.PutUvarint(b[k:], zigzag(ts-w.prevT))
	bits := math.Float64bits(v)
	k += binary.PutUvarint(b[k:], bits^w.prevBits[series])
	w.prevBits[series] = bits
	w.buf = w.buf[:n+k]
	w.prevT = ts
}

// AppendFrame appends vals[i] to series i at t for every i: the
// cluster.Sink feeding a cluster trace schema.
func (w *Writer) AppendFrame(t time.Duration, vals []float64) {
	for i, v := range vals {
		w.Append(i, t, v)
	}
}

// Event records one timestamped line of text (a fail-safe edge, a fault
// transition, a golden-trace step line). Events share the file with
// samples but live in their own chunks. Errors stick and are reported
// by Close.
func (w *Writer) Event(t time.Duration, text string) {
	if w.err != nil {
		return
	}
	need := 10 + 10 + len(text)
	if need > cap(w.buf) {
		w.err = ErrRecordTooLarge
		return
	}
	ts := w.open(kindEvents, need, t)
	n := len(w.buf)
	b := w.buf[n:cap(w.buf)]
	k := binary.PutUvarint(b, zigzag(ts-w.prevT))
	k += binary.PutUvarint(b[k:], uint64(len(text)))
	k += copy(b[k:], text)
	w.buf = w.buf[:n+k]
	w.prevT = ts
}

// open makes room for one record of the given kind and at most need
// bytes at time t, and counts it into the open chunk. It seals the
// open chunk first when it is full or holds the other kind.
func (w *Writer) open(kind byte, need int, t time.Duration) int64 {
	if w.count > 0 && (w.kind != kind || cap(w.buf)-len(w.buf) < need || len(w.buf) >= w.sealBytes) {
		w.seal()
	}
	ts := int64(t)
	if w.count == 0 {
		w.kind = kind
		w.base, w.minT, w.maxT, w.prevT = ts, ts, ts, ts
	}
	w.count++
	if ts < w.minT {
		w.minT = ts
	}
	if ts > w.maxT {
		w.maxT = ts
	}
	return ts
}

// seal writes the open chunk and starts an empty one. Every chunk
// decodes from a clean slate: the per-series previous value bits reset
// so random access never needs a prior chunk.
func (w *Writer) seal() {
	if err := w.writeChunk(); err != nil {
		w.err = err
	}
	w.buf = w.buf[:0]
	w.count = 0
	clear(w.prevBits)
}

// writeChunk compresses (when enabled), checksums and writes the open
// chunk, and indexes it.
func (w *Writer) writeChunk() error {
	payload := w.buf
	var flags byte
	if w.comp != nil {
		w.compBuf.b = w.compBuf.b[:0]
		w.comp.Reset(&w.compBuf)
		if _, err := w.comp.Write(w.buf); err != nil {
			return fmt.Errorf("tracefile: compressing chunk: %w", err)
		}
		if err := w.comp.Close(); err != nil {
			return fmt.Errorf("tracefile: compressing chunk: %w", err)
		}
		// Store incompressible chunks raw; the per-chunk flag records
		// the choice so the reader never guesses.
		if len(w.compBuf.b) < len(w.buf) {
			payload = w.compBuf.b
			flags = flagCompressed
		}
	}
	h := w.hdrBuf[:]
	copy(h, chunkMagic)
	h[4], h[5] = w.kind, flags // h[6:8] is reserved and stays zero
	binary.LittleEndian.PutUint64(h[8:], uint64(w.base))
	binary.LittleEndian.PutUint64(h[16:], uint64(w.minT))
	binary.LittleEndian.PutUint64(h[24:], uint64(w.maxT))
	binary.LittleEndian.PutUint32(h[32:], w.count)
	binary.LittleEndian.PutUint32(h[36:], uint32(len(w.buf)))
	binary.LittleEndian.PutUint32(h[40:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[44:], crc32.ChecksumIEEE(payload))
	if _, err := w.dst.Write(h); err != nil {
		return fmt.Errorf("tracefile: writing chunk header: %w", err)
	}
	if _, err := w.dst.Write(payload); err != nil {
		return fmt.Errorf("tracefile: writing chunk payload: %w", err)
	}
	//thermlint:allow hotalloc -- one entry per sealed 64 KiB chunk, not per sample
	w.index = append(w.index, indexEntry{
		offset: w.off, kind: w.kind, count: w.count, minT: w.minT, maxT: w.maxT,
	})
	w.off += int64(len(h)) + int64(len(payload))
	return nil
}

// Close seals the final chunk, writes the chunk index footer and
// trailer, and returns the first error the writer encountered. The
// underlying destination is not closed; that stays with the caller, as
// for bufio.Writer.
func (w *Writer) Close() error {
	if w.err == nil && w.count > 0 {
		w.seal()
	}
	err := w.err
	// Any later Close, Append or Event sees ErrClosed: the sticky
	// error path makes the appends no-ops.
	w.err = ErrClosed
	if err != nil {
		return err
	}
	idx := make([]byte, 0, 4+4+len(w.index)*indexEntryLen+4+trailerLen)
	idx = append(idx, indexMagic...)
	idx = binary.LittleEndian.AppendUint32(idx, uint32(len(w.index)))
	entries := len(idx)
	for _, e := range w.index {
		idx = binary.LittleEndian.AppendUint64(idx, uint64(e.offset))
		idx = append(idx, e.kind)
		idx = binary.LittleEndian.AppendUint32(idx, e.count)
		idx = binary.LittleEndian.AppendUint64(idx, uint64(e.minT))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(e.maxT))
	}
	idx = binary.LittleEndian.AppendUint32(idx, crc32.ChecksumIEEE(idx[entries:]))
	idx = binary.LittleEndian.AppendUint64(idx, uint64(w.off))
	idx = append(idx, trailerMagic...)
	if _, err := w.dst.Write(idx); err != nil {
		return fmt.Errorf("tracefile: writing index footer: %w", err)
	}
	return nil
}
