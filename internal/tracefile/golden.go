package tracefile

import (
	"bytes"
	"fmt"
	"time"
)

// lineTime maps a line ordinal to its event timestamp.
func lineTime(i int) time.Duration { return time.Duration(i) }

// EncodeEvents renders lines as a complete event-only trace image, one
// Event per line with t = line ordinal. This is how golden step traces
// are stored: the text contract of the old .trace files, carried in
// the binary format so every go test run exercises the writer, reader
// and diff together.
func EncodeEvents(lines []string) ([]byte, error) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, nil, true)
	if err != nil {
		return nil, err
	}
	for i, l := range lines {
		w.Event(lineTime(i), l)
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DiffEventLines compares produced lines against a golden trace image
// via the same Diff primitives thermtrace uses, returning nil when
// they match and a descriptive error naming the first divergence when
// not.
//
//thermlint:allow deadcode -- cross-package golden helper: the core, baseline and cluster goldens are compared with it
func DiffEventLines(golden []byte, lines []string) error {
	gr, err := NewBytesReader(golden)
	if err != nil {
		return fmt.Errorf("golden trace unreadable: %w", err)
	}
	if err := gr.Incomplete(); err != nil {
		return fmt.Errorf("golden trace incomplete: %w", err)
	}
	img, err := EncodeEvents(lines)
	if err != nil {
		return fmt.Errorf("encoding produced trace: %w", err)
	}
	pr, err := NewBytesReader(img)
	if err != nil {
		return fmt.Errorf("re-reading produced trace: %w", err)
	}
	res, err := Diff(gr, pr, 0)
	if err != nil {
		return err
	}
	if !res.Equal() {
		return fmt.Errorf("trace differs from golden (%d golden / %d produced events): %s",
			res.EventsA, res.EventsB, res.First)
	}
	return nil
}
