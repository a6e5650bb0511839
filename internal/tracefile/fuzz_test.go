package tracefile

import (
	"bytes"
	"testing"
	"time"
)

// FuzzReadTrace throws arbitrary bytes at the reader: it must either
// refuse with a descriptive error or serve some prefix of chunks —
// never panic, never allocate unboundedly (the maxChunkRaw and
// maxSchemaLen limits), never loop forever.
func FuzzReadTrace(f *testing.F) {
	// Seed with real images so mutations explore the interesting
	// neighborhood of the format, not just the magic check.
	seed := func(compress bool, sealBytes int, events bool) []byte {
		var buf bytes.Buffer
		w, err := newWriter(&buf, testSchema, compress, sealBytes)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			ts := time.Duration(i) * 250 * time.Millisecond
			w.Append(i%3, ts, float64(i)*1.5)
			if events && i%50 == 0 {
				w.Event(ts, "fault injected")
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	full := seed(true, chunkBytes, true)
	f.Add(full)
	f.Add(seed(false, chunkBytes, false))
	f.Add(seed(true, 64, true))
	f.Add(full[:len(full)/2]) // truncated
	f.Add([]byte("THERMTCT"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewBytesReader(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty error message")
			}
			return
		}
		// Whatever opened must be iterable without panicking; decode
		// errors are fine, they just have to be errors.
		_ = r.Incomplete()
		_ = r.Samples(Window{From: 0, To: time.Minute}, func(Sample) error { return nil })
		_ = r.Events(Window{}, func(Event) error { return nil })
		_, _ = r.Counts()
		_, _, _ = r.TimeRange()
		if a, aerr := NewBytesReader(data); aerr == nil {
			_, _ = Diff(r, a, 0)
		}
	})
}
