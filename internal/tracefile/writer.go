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

// Options tunes a Writer. The zero value selects the defaults.
type Options struct {
	// ChunkBytes is the raw (uncompressed) payload size at which a
	// chunk is sealed. 0 means 64 KiB.
	ChunkBytes int
	// Buffers is the depth of the bounded buffer between the appending
	// goroutine and the background flusher: how many sealed chunks may
	// be in flight before Append blocks (backpressure, never data
	// loss). 0 means 4.
	Buffers int
	// NoCompress disables DEFLATE chunk compression.
	NoCompress bool
}

// maxRecordLen bounds one encoded sample record: three varints of at
// most 10 bytes each, rounded up. Chunk buffers carry this much spare
// capacity so encoding never grows the buffer.
const maxRecordLen = 32

const defaultChunkBytes = 64 << 10

// chunk is one in-flight chunk buffer, cycled between the appender and
// the flusher through the free/work channels.
type chunk struct {
	buf   []byte // encoded records; cap is sealBytes+maxRecordLen
	kind  byte
	count uint32
	base  int64
	minT  int64
	maxT  int64
}

func (c *chunk) reset() {
	c.buf = c.buf[:0]
	c.kind = 0
	c.count = 0
}

// Writer streams samples and events to an underlying io.Writer in the
// tracefile format. Append and Event are cheap and allocation-free in
// steady state: records are delta-encoded into a pre-sized chunk
// buffer, and sealed chunks are handed to a background flusher (CRC,
// optional compression, the actual write) over a bounded buffer, so
// the simulation step path never waits on the disk unless the flusher
// falls a full buffer behind.
//
// A Writer is not safe for concurrent use: the cluster feeds it from
// the serial controller phase, which both serializes access and keeps
// the byte stream identical at every worker count. Errors stick: the
// first encode, write or compression failure is reported by Close
// (and every later Append is a no-op), mirroring bufio.Writer.
type Writer struct {
	schema   []SeriesDef
	compress bool

	sealBytes int
	cur       *chunk
	free      chan *chunk
	work      chan *chunk
	done      chan struct{}
	// chunks counts the chunk buffers allocated so far, at most
	// Options.Buffers (cap(free)): a buffer is allocated only when none
	// is free, so a trace shorter than one chunk costs one.
	chunks int

	// Appender-side encode state, reset at every chunk boundary so each
	// chunk decodes independently of its predecessors.
	prevT    int64
	prevBits []uint64
	err      error // sticky appender-side error
	closed   bool

	// Flusher-owned state. Close reads it only after the flusher has
	// exited (the done channel provides the happens-before edge).
	dst      io.Writer
	off      int64
	index    []indexEntry
	comp     *flate.Writer
	compBuf  sliceWriter
	hdrBuf   [chunkHeaderLen]byte
	werr     error // sticky flusher-side error
	nSamples uint64
	nEvents  uint64
}

// sliceWriter is the flusher's reusable compression sink.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// NewWriter writes the file header for the declared schema to dst and
// returns a Writer streaming chunks to it. The schema is fixed for the
// life of the file: Append addresses series by index into it. dst is
// typically an *os.File; the Writer adds its own chunk-sized batching,
// so no bufio layer is needed.
func NewWriter(dst io.Writer, schema []SeriesDef, opt *Options) (*Writer, error) {
	var o Options
	if opt != nil {
		o = *opt
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = defaultChunkBytes
	}
	if o.ChunkBytes < 2*maxRecordLen {
		o.ChunkBytes = 2 * maxRecordLen
	}
	if o.Buffers <= 0 {
		o.Buffers = 4
	}
	var flags uint16
	if !o.NoCompress {
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
		schema:    append([]SeriesDef(nil), schema...),
		compress:  !o.NoCompress,
		sealBytes: o.ChunkBytes,
		free:      make(chan *chunk, o.Buffers),
		work:      make(chan *chunk, o.Buffers),
		done:      make(chan struct{}),
		prevBits:  make([]uint64, len(schema)),
		dst:       dst,
		off:       int64(len(hdr)),
	}
	w.cur = w.next()
	if w.compress {
		// BestSpeed: the delta+varint payload leaves little entropy
		// for higher levels to find, and the flusher competes with
		// the step loop for CPU on single-core hosts.
		w.comp, _ = flate.NewWriter(&w.compBuf, flate.BestSpeed)
	}
	go w.flusher()
	return w, nil
}

// Append records one sample of the series at index series (into the
// schema passed to NewWriter). It never blocks on the disk unless the
// bounded buffer is full, and performs no heap allocation. Errors
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
	w.ensure(kindSamples, maxRecordLen)
	c := w.cur
	ts := int64(t)
	if c.count == 0 {
		c.base, c.minT, c.maxT, w.prevT = ts, ts, ts, ts
	}
	n := len(c.buf)
	b := c.buf[n:cap(c.buf)]
	k := binary.PutUvarint(b, uint64(series))
	k += binary.PutUvarint(b[k:], zigzag(ts-w.prevT))
	bits := math.Float64bits(v)
	k += binary.PutUvarint(b[k:], bits^w.prevBits[series])
	w.prevBits[series] = bits
	c.buf = c.buf[:n+k]
	c.count++
	w.prevT = ts
	if ts < c.minT {
		c.minT = ts
	}
	if ts > c.maxT {
		c.maxT = ts
	}
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
	if need > w.sealBytes+maxRecordLen {
		w.err = ErrRecordTooLarge
		return
	}
	w.ensure(kindEvents, need)
	c := w.cur
	ts := int64(t)
	if c.count == 0 {
		c.base, c.minT, c.maxT, w.prevT = ts, ts, ts, ts
	}
	n := len(c.buf)
	b := c.buf[n:cap(c.buf)]
	k := binary.PutUvarint(b, zigzag(ts-w.prevT))
	k += binary.PutUvarint(b[k:], uint64(len(text)))
	k += copy(b[k:], text)
	c.buf = c.buf[:n+k]
	c.count++
	w.prevT = ts
	if ts < c.minT {
		c.minT = ts
	}
	if ts > c.maxT {
		c.maxT = ts
	}
}

// ensure seals the current chunk when it is full, or when the record
// kind changes; the next chunk buffer comes from the free list
// (blocking while the flusher drains the bounded buffer).
func (w *Writer) ensure(kind byte, need int) {
	c := w.cur
	if c.count > 0 && (c.kind != kind || cap(c.buf)-len(c.buf) < need || len(c.buf) >= w.sealBytes) {
		w.seal()
		c = w.cur
	}
	c.kind = kind
}

// seal hands the current chunk to the flusher and starts a fresh one.
func (w *Writer) seal() {
	//thermlint:allow onstepblock -- bounded-buffer backpressure by design: blocks only when the flusher is Buffers chunks behind
	w.work <- w.cur
	w.cur = w.next()
	// Every chunk decodes from a clean slate: per-series previous
	// value bits reset so random access never needs a prior chunk.
	for i := range w.prevBits {
		w.prevBits[i] = 0
	}
}

// next returns a free chunk buffer, allocating one while fewer than
// Options.Buffers exist, and otherwise waiting for the flusher to
// recycle one.
func (w *Writer) next() *chunk {
	select {
	case c := <-w.free:
		return c
	default:
	}
	if w.chunks < cap(w.free) {
		w.chunks++
		//thermlint:allow hotalloc -- at most Options.Buffers chunk buffers per writer, each then recycled
		return &chunk{buf: make([]byte, 0, w.sealBytes+maxRecordLen)}
	}
	//thermlint:allow onstepblock -- paired with seal's send; the flusher recycles every chunk it drains
	return <-w.free
}

// flusher drains sealed chunks: CRC, optional compression, write.
// After the first write error it keeps draining (Append must never
// deadlock) but stops touching the destination.
func (w *Writer) flusher() {
	defer close(w.done)
	for c := range w.work {
		w.flushChunk(c)
		c.reset()
		w.free <- c
	}
}

func (w *Writer) flushChunk(c *chunk) {
	if w.werr != nil {
		return
	}
	payload := c.buf
	var flags byte
	if w.compress {
		w.compBuf.b = w.compBuf.b[:0]
		w.comp.Reset(&w.compBuf)
		if _, err := w.comp.Write(c.buf); err != nil {
			w.werr = fmt.Errorf("tracefile: compressing chunk: %w", err)
			return
		}
		if err := w.comp.Close(); err != nil {
			w.werr = fmt.Errorf("tracefile: compressing chunk: %w", err)
			return
		}
		// Store incompressible chunks raw; the per-chunk flag records
		// the choice so the reader never guesses.
		if len(w.compBuf.b) < len(c.buf) {
			payload = w.compBuf.b
			flags = flagCompressed
		}
	}
	hdr := w.hdrBuf[:0]
	hdr = append(hdr, chunkMagic...)
	hdr = append(hdr, c.kind, flags, 0, 0)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(c.base))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(c.minT))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(c.maxT))
	hdr = binary.LittleEndian.AppendUint32(hdr, c.count)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(c.buf)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	if _, err := w.dst.Write(hdr); err != nil {
		w.werr = fmt.Errorf("tracefile: writing chunk header: %w", err)
		return
	}
	if _, err := w.dst.Write(payload); err != nil {
		w.werr = fmt.Errorf("tracefile: writing chunk payload: %w", err)
		return
	}
	w.index = append(w.index, indexEntry{
		offset: w.off, kind: c.kind, count: c.count, minT: c.minT, maxT: c.maxT,
	})
	switch c.kind {
	case kindSamples:
		w.nSamples += uint64(c.count)
	case kindEvents:
		w.nEvents += uint64(c.count)
	}
	w.off += int64(len(hdr)) + int64(len(payload))
}

// Close seals the final chunk, waits for the flusher to drain, writes
// the chunk index footer and trailer, and returns the first error the
// writer encountered. The underlying destination is not closed; that
// stays with the caller, as for bufio.Writer.
func (w *Writer) Close() error {
	if w.closed {
		return ErrClosed
	}
	w.closed = true
	if w.cur.count > 0 {
		w.work <- w.cur
	}
	// Any Append or Event after Close must no-op (not feed a drained
	// pipeline); the sticky error path already does exactly that.
	defer func() {
		if w.err == nil {
			w.err = ErrClosed
		}
	}()
	close(w.work)
	<-w.done
	if w.err != nil {
		return w.err
	}
	if w.werr != nil {
		return w.werr
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
