package config

import (
	"fmt"
	"io"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/tracefile"
)

// ErrTraceInterval rejects an interval <= 0 before any header byte is written.
var ErrTraceInterval = cluster.ErrSampleInterval

// ClusterTraceSchema declares the trace-file series of an n-node
// cluster: the cluster sample frame (cluster.FrameFields per node, in
// node order) named "n3_temp" like the in-memory experiment probes,
// with the physical units the unitsafe analyzer tracks in code.
func ClusterTraceSchema(n int) []tracefile.SeriesDef {
	defs := make([]tracefile.SeriesDef, 0, n*cluster.FrameWidth)
	for i := 0; i < n; i++ {
		for _, f := range cluster.FrameFields {
			defs = append(defs, tracefile.SeriesDef{Name: fmt.Sprintf("n%d_%s", i, f.Name), Unit: f.Unit})
		}
	}
	return defs
}

// AttachTraceProbe writes the schema header for the cluster to dst and
// registers the cluster sampler every interval, feeding the writer and
// then any extra sinks from the same frame. Close the returned writer
// after the run to flush chunks and the index footer; the first
// append/write error surfaces there.
//
// The step-path probe writes raw (uncompressed) chunks: on a
// single-core host the flusher's flate pass cannot overlap the step
// loop, and its cost alone breaches the 5% trace-overhead gate —
// while the delta+varint encoding already carries most of the size
// win. Offline writers (golden images) keep compression on.
func AttachTraceProbe(c *cluster.Cluster, dst io.Writer, every time.Duration, also ...cluster.Sink) (*tracefile.Writer, error) {
	if every <= 0 {
		return nil, fmt.Errorf("config: trace probe: %w (got %s)", ErrTraceInterval, every)
	}
	w, err := tracefile.NewWriter(dst, ClusterTraceSchema(len(c.Nodes)),
		&tracefile.Options{NoCompress: true})
	if err != nil {
		return nil, err
	}
	return w, c.Sample(every, append([]cluster.Sink{w.AppendFrame}, also...)...)
}
