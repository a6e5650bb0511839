package tracefile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

var testSchema = []SeriesDef{
	{Name: "n0_temp", Unit: "degC"},
	{Name: "n0_fan", Unit: "percent"},
	{Name: "n0_freq", Unit: "GHz"},
}

// writeImage renders a trace image with count samples per series at
// 250ms cadence plus a few events, in chunks sealed at sealBytes.
func writeImage(t *testing.T, compress bool, sealBytes, count int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := newWriter(&buf, testSchema, compress, sealBytes)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < count; i++ {
		ts := time.Duration(i) * 250 * time.Millisecond
		w.Append(0, ts, 40+10*math.Sin(float64(i)/20))
		w.Append(1, ts, float64(30+i%50))
		w.Append(2, ts, 2.4)
		if i%100 == 0 {
			w.Event(ts, fmt.Sprintf("checkpoint %d", i))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// expected regenerates the sample stream writeImage encodes.
func expected(count int) []Sample {
	var out []Sample
	for i := 0; i < count; i++ {
		ts := time.Duration(i) * 250 * time.Millisecond
		out = append(out,
			Sample{0, ts, 40 + 10*math.Sin(float64(i)/20)},
			Sample{1, ts, float64(30 + i%50)},
			Sample{2, ts, 2.4})
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name      string
		compress  bool
		sealBytes int
	}{
		{"default", true, chunkBytes},
		{"no-compress", false, chunkBytes},
		{"tiny-chunks", true, 128},
		{"tiny-chunks-no-compress", false, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const count = 500
			img := writeImage(t, tc.compress, tc.sealBytes, count)
			r, err := NewBytesReader(img)
			if err != nil {
				t.Fatalf("NewBytesReader: %v", err)
			}
			if err := r.Incomplete(); err != nil {
				t.Fatalf("Incomplete on a cleanly closed file: %v", err)
			}
			if !schemaEqual(r.Schema(), testSchema) {
				t.Fatalf("schema = %v, want %v", r.Schema(), testSchema)
			}
			var got []Sample
			if err := r.Samples(Window{}, func(s Sample) error {
				got = append(got, s)
				return nil
			}); err != nil {
				t.Fatalf("Samples: %v", err)
			}
			want := expected(count)
			if len(got) != len(want) {
				t.Fatalf("read %d samples, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sample %d = %+v, want %+v (values must be bit-exact)", i, got[i], want[i])
				}
			}
			var events []Event
			if err := r.Events(Window{}, func(e Event) error {
				events = append(events, e)
				return nil
			}); err != nil {
				t.Fatalf("Events: %v", err)
			}
			if len(events) != count/100 {
				t.Fatalf("read %d events, want %d", len(events), count/100)
			}
			if events[1].Text != "checkpoint 100" || events[1].T != 25*time.Second {
				t.Fatalf("event 1 = %+v", events[1])
			}
			ns, ne := r.Counts()
			if ns != uint64(len(want)) || ne != uint64(len(events)) {
				t.Fatalf("Counts = %d, %d; want %d, %d", ns, ne, len(want), len(events))
			}
		})
	}
}

func TestWindowedReads(t *testing.T) {
	const count = 1000
	// Tiny chunks so the window actually skips chunks via the index.
	img := writeImage(t, true, 256, count)
	r, err := NewBytesReader(img)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumChunks() < 10 {
		t.Fatalf("want many chunks for a meaningful window test, got %d", r.NumChunks())
	}
	win := Window{From: 30 * time.Second, To: 60 * time.Second}
	var got []Sample
	if err := r.Samples(win, func(s Sample) error {
		got = append(got, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var want []Sample
	for _, s := range expected(count) {
		if s.T >= win.From && s.T <= win.To {
			want = append(want, s)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("window returned %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowed sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	from, to, ok := r.TimeRange()
	if !ok || from != 0 || to != time.Duration(count-1)*250*time.Millisecond {
		t.Fatalf("TimeRange = %s..%s, %v", from, to, ok)
	}
}

func TestEarlyStop(t *testing.T) {
	img := writeImage(t, true, chunkBytes, 100)
	r, err := NewBytesReader(img)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := r.Samples(Window{}, func(Sample) error {
		n++
		if n == 7 {
			return ErrStop
		}
		return nil
	}); err != nil {
		t.Fatalf("ErrStop must not surface: %v", err)
	}
	if n != 7 {
		t.Fatalf("callback ran %d times, want 7", n)
	}
}

func TestOutOfOrderTimestamps(t *testing.T) {
	// Events and samples may go backwards in time (chaos replays splice
	// streams); the zigzag deltas must survive it.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testSchema[:1], true)
	if err != nil {
		t.Fatal(err)
	}
	times := []time.Duration{10 * time.Second, 2 * time.Second, 30 * time.Second, 0}
	for i, ts := range times {
		w.Append(0, ts, float64(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewBytesReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var got []Sample
	if err := r.Samples(Window{}, func(s Sample) error {
		got = append(got, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(times) {
		t.Fatalf("read %d, want %d", len(got), len(times))
	}
	for i, ts := range times {
		if got[i].T != ts || got[i].V != float64(i) {
			t.Fatalf("sample %d = %+v, want t=%s v=%d", i, got[i], ts, i)
		}
	}
	from, to, _ := r.TimeRange()
	if from != 0 || to != 30*time.Second {
		t.Fatalf("TimeRange = %s..%s", from, to)
	}
}

func TestAppendZeroAllocs(t *testing.T) {
	// A chunk large enough that the measured appends never seal: the
	// claim under test is the per-sample cost of the step path, not
	// the amortized chunk write.
	w, err := newWriter(io.Discard, testSchema, true, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		w.Append(i%3, time.Duration(i)*time.Millisecond, float64(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %.1f per call; the step path demands 0", allocs)
	}
}

// readSamples decodes every sample img holds, rescanning the chunks
// when the index footer is missing.
func readSamples(t *testing.T, img []byte) (*Reader, []Sample) {
	t.Helper()
	r, err := NewBytesReader(img)
	if err != nil {
		t.Fatalf("NewBytesReader: %v", err)
	}
	var got []Sample
	if err := r.Samples(Window{}, func(s Sample) error {
		got = append(got, s)
		return nil
	}); err != nil {
		t.Fatalf("Samples: %v", err)
	}
	return r, got
}

func TestSealWritesBeforeAppendReturns(t *testing.T) {
	var buf bytes.Buffer
	w, err := newWriter(&buf, testSchema, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := expected(100)
	sealed, seals := 0, 0
	for i, s := range want {
		before := buf.Len()
		w.Append(s.Series, s.T, s.V)
		if buf.Len() == before {
			continue
		}
		// This Append sealed the chunk holding samples [sealed, i) and
		// opened the next chunk with sample i. The sealed chunk must
		// already be in the destination.
		seals++
		r, got := readSamples(t, buf.Bytes())
		if r.Incomplete() == nil {
			t.Fatalf("sample %d: a file without its footer reads as complete", i)
		}
		if r.NumChunks() != seals {
			t.Fatalf("sample %d: destination holds %d chunks, want %d", i, r.NumChunks(), seals)
		}
		if len(got) != i {
			t.Fatalf("sample %d: destination holds %d samples, want %d", i, len(got), i)
		}
		sealed = i
	}
	if seals < 10 {
		t.Fatalf("only %d seals; want many small chunks", seals)
	}
	// Drop the writer without Close: only the open chunk is lost.
	r, got := readSamples(t, buf.Bytes())
	if r.Incomplete() == nil {
		t.Fatal("an unclosed trace reads as complete")
	}
	if len(got) != sealed {
		t.Fatalf("unclosed trace serves %d samples, want the %d sealed ones", len(got), sealed)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWriterStickyErrors(t *testing.T) {
	w, err := NewWriter(io.Discard, testSchema, true)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(7, 0, 1) // out of range
	w.Append(0, 0, 1) // ignored after the sticky error
	if err := w.Close(); err != ErrSeriesRange {
		t.Fatalf("Close = %v, want ErrSeriesRange", err)
	}
	if err := w.Close(); err != ErrClosed {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	// Append after Close must be a silent no-op, not a panic.
	w.Append(0, 0, 1)

	w2, err := NewWriter(io.Discard, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	w2.Event(0, strings.Repeat("x", chunkBytes+maxRecordLen+1))
	if err := w2.Close(); err != ErrRecordTooLarge {
		t.Fatalf("Close = %v, want ErrRecordTooLarge", err)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	f.n--
	return len(p), nil
}

func TestWriteErrorSurfacesAtClose(t *testing.T) {
	w, err := newWriter(&failWriter{n: 1}, testSchema, true, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		w.Append(0, time.Duration(i), float64(i))
	}
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close = %v, want the chunk write's disk error", err)
	}
}

// corrupt variants: each takes a valid image and damages it.
func TestCorruptInputs(t *testing.T) {
	const count = 400
	img := writeImage(t, true, 256, count)
	full, err := NewBytesReader(img)
	if err != nil {
		t.Fatal(err)
	}
	nChunks := full.NumChunks()
	if nChunks < 8 {
		t.Fatalf("need several chunks, got %d", nChunks)
	}
	// Locate a mid-file *samples* chunk via the (trusted) index of the
	// intact file for surgical corruption — corrupting an event chunk
	// would never surface through Samples.
	midIdx := -1
	for i := nChunks / 2; i < nChunks; i++ {
		if full.chunks[i].kind == kindSamples {
			midIdx = i
			break
		}
	}
	if midIdx < 0 {
		t.Fatal("no samples chunk in the back half")
	}
	midChunk := full.chunks[midIdx].offset
	// The footer starts where the trailer says the index lives.
	footerOff := int64(binary.LittleEndian.Uint64(img[len(img)-trailerLen:]))

	t.Run("unknown version", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint16(bad[8:10], 99)
		_, err := NewBytesReader(bad)
		if err == nil || !strings.Contains(err.Error(), "version 99") {
			t.Fatalf("err = %v, want a version error", err)
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		copy(bad, "NOTATRCE")
		_, err := NewBytesReader(bad)
		if err == nil || !strings.Contains(err.Error(), "not a trace file") {
			t.Fatalf("err = %v, want a magic error", err)
		}
	})

	t.Run("missing footer", func(t *testing.T) {
		// Cut exactly at the index footer: every chunk survives.
		bad := img[:footerOff]
		r, err := NewBytesReader(bad)
		if err != nil {
			t.Fatalf("a footerless file must still open: %v", err)
		}
		if r.Incomplete() == nil || !strings.Contains(r.Incomplete().Error(), "missing index footer") {
			t.Fatalf("Incomplete = %v, want a missing-footer report", r.Incomplete())
		}
		if r.NumChunks() != nChunks {
			t.Fatalf("rescan recovered %d chunks, want all %d", r.NumChunks(), nChunks)
		}
		ns, _ := full.Counts()
		ns2, _ := r.Counts()
		if ns2 != ns {
			t.Fatalf("rescan serves %d samples, want %d", ns2, ns)
		}
	})

	t.Run("truncated chunk", func(t *testing.T) {
		bad := img[:midChunk+chunkHeaderLen+3]
		r, err := NewBytesReader(bad)
		if err != nil {
			t.Fatalf("a truncated file must still open: %v", err)
		}
		if r.Incomplete() == nil || !strings.Contains(r.Incomplete().Error(), "truncated") {
			t.Fatalf("Incomplete = %v, want a truncation report", r.Incomplete())
		}
		if r.NumChunks() != midIdx {
			t.Fatalf("recovered %d chunks, want the %d intact ones before the cut", r.NumChunks(), midIdx)
		}
		// The recovered prefix must read back clean.
		if err := r.Samples(Window{}, func(Sample) error { return nil }); err != nil {
			t.Fatalf("reading the recovered prefix: %v", err)
		}
	})

	t.Run("bad CRC with footer", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[midChunk+chunkHeaderLen] ^= 0xff
		r, err := NewBytesReader(bad)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		err = r.Samples(Window{}, func(Sample) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
			t.Fatalf("Samples = %v, want a CRC error", err)
		}
	})

	t.Run("bad CRC without footer", func(t *testing.T) {
		bad := append([]byte(nil), img[:footerOff]...)
		bad[midChunk+chunkHeaderLen] ^= 0xff
		r, err := NewBytesReader(bad)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if r.Incomplete() == nil || !strings.Contains(r.Incomplete().Error(), "CRC mismatch") {
			t.Fatalf("Incomplete = %v, want a CRC report", r.Incomplete())
		}
		if r.NumChunks() != midIdx {
			t.Fatalf("recovered %d chunks, want %d before the damage", r.NumChunks(), midIdx)
		}
	})

	t.Run("truncated header", func(t *testing.T) {
		_, err := NewBytesReader(img[:10])
		if err == nil {
			t.Fatal("want an error for a 10-byte file")
		}
	})

	t.Run("oversized declared chunk", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(bad[midChunk+40:], maxChunkRaw+1)
		r, err := NewBytesReader(bad)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		err = r.Samples(Window{}, func(Sample) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "limit") {
			t.Fatalf("Samples = %v, want a size-limit error", err)
		}
	})
}

func TestDiff(t *testing.T) {
	img := writeImage(t, true, 512, 300)
	a, err := NewBytesReader(img)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("identical", func(t *testing.T) {
		b, _ := NewBytesReader(img)
		res, err := Diff(a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal() || res.MaxDelta != 0 {
			t.Fatalf("identical traces: %+v (first: %v)", res, res.First)
		}
		if res.SamplesA != 900 || res.SamplesA != res.SamplesB {
			t.Fatalf("compared %d/%d samples", res.SamplesA, res.SamplesB)
		}
	})

	t.Run("value divergence and tolerance", func(t *testing.T) {
		var buf bytes.Buffer
		w, _ := newWriter(&buf, testSchema, true, 512)
		n := 0
		aR, _ := NewBytesReader(img)
		aR.Samples(Window{}, func(s Sample) error {
			v := s.V
			if n == 450 {
				v += 0.5
			}
			w.Append(s.Series, s.T, v)
			n++
			return nil
		})
		aE, _ := NewBytesReader(img)
		aE.Events(Window{}, func(e Event) error {
			w.Event(e.T, e.Text)
			return nil
		})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := NewBytesReader(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Diff(a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Equal() || res.First == nil || res.First.Kind != "sample" || res.First.Index != 450 {
			t.Fatalf("want sample divergence at 450, got %+v (first %+v)", res, res.First)
		}
		if math.Abs(res.MaxDelta-0.5) > 1e-12 {
			t.Fatalf("MaxDelta = %v, want 0.5", res.MaxDelta)
		}
		// Within tolerance the same pair matches.
		res, err = Diff(a, b, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal() {
			t.Fatalf("tolerance 0.6 should absorb a 0.5 delta: first %v", res.First)
		}
	})

	t.Run("schema mismatch", func(t *testing.T) {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, testSchema[:2], true)
		w.Append(0, 0, 1)
		w.Close()
		b, _ := NewBytesReader(buf.Bytes())
		res, err := Diff(a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.SchemaEqual || res.First == nil || res.First.Kind != "schema" {
			t.Fatalf("want schema divergence, got %+v", res)
		}
	})

	t.Run("count mismatch", func(t *testing.T) {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, testSchema, true)
		aR, _ := NewBytesReader(img)
		n := 0
		aR.Samples(Window{}, func(s Sample) error {
			if n < 100 {
				w.Append(s.Series, s.T, s.V)
			}
			n++
			return nil
		})
		w.Close()
		b, _ := NewBytesReader(buf.Bytes())
		res, err := Diff(a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Equal() || res.First == nil || res.First.Kind != "count" {
			t.Fatalf("want count divergence, got %+v (first %+v)", res, res.First)
		}
		if res.SamplesA != 900 || res.SamplesB != 100 {
			t.Fatalf("counted %d/%d", res.SamplesA, res.SamplesB)
		}
	})
}

func TestGoldenEventHelpers(t *testing.T) {
	lines := []string{"t=0s duty=30.0", "t=1s duty=42.5", "t=2s duty=55.0"}
	img, err := EncodeEvents(lines)
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffEventLines(img, lines); err != nil {
		t.Fatalf("matching lines diff: %v", err)
	}
	changed := append([]string(nil), lines...)
	changed[1] = "t=1s duty=43.0"
	err = DiffEventLines(img, changed)
	if err == nil || !strings.Contains(err.Error(), "differs from golden") {
		t.Fatalf("changed lines diff = %v, want a divergence", err)
	}
	err = DiffEventLines(img, lines[:2])
	if err == nil {
		t.Fatal("short lines diff: want a count divergence")
	}
}

// TestDeterministicBytes locks the property the trace-parity checks
// lean on: the same append sequence yields byte-identical files, every
// time. The bytes depend only on the appends, the seal size and the
// compress flag.
func TestDeterministicBytes(t *testing.T) {
	a := writeImage(t, true, chunkBytes, 777)
	b := writeImage(t, true, chunkBytes, 777)
	if !bytes.Equal(a, b) {
		t.Fatal("two writes of the same sequence differ byte for byte")
	}
}
