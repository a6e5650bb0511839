package server

// Live telemetry streaming. Each job owns a hub; the job runner feeds
// a streamProbe from the cluster sampler that also writes the job's
// trace (one frame, two sinks, in the serial post phase like the fault
// plane), and every SSE handler subscribes to the hub. Publishing never
// blocks the simulation: a subscriber whose buffer is full loses that
// record and the hub counts the drop.
//
// The probe rides the step loop, so it obeys the hot-path allocation
// budget: fail-safe / fault edges come from cheap constant-cost
// accessors (FailSafe() booleans, the injectors' atomic State loads)
// read at the sample instant — never from the event-log copying
// accessors, which exist for end-of-run reporting. Stream events are
// therefore quantized to the sample cadence; the full-resolution logs
// live in the job's report artifact.

import (
	"encoding/json"
	"sync"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/faults"
	"thermctl/internal/metrics"
)

// event is one pre-marshaled SSE record.
type event struct {
	// kind becomes the SSE "event:" field: sample, fault, failsafe or
	// state.
	kind string
	// data is the marshaled JSON payload.
	data []byte
}

// hub fans events out to the job's stream subscribers.
type hub struct {
	mu     sync.Mutex
	subs   map[chan event]struct{}
	closed bool
	// dropped counts records lost to slow subscribers (nil-safe).
	dropped *metrics.Counter
}

func newHub(dropped *metrics.Counter) *hub {
	return &hub{subs: map[chan event]struct{}{}, dropped: dropped}
}

// subscribe registers a buffered subscriber channel, or returns nil
// when the hub is already closed (the job is terminal; there is
// nothing left to stream).
func (h *hub) subscribe() chan event {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	// 256 events of headroom ≈ four simulated minutes of samples; a
	// reader further behind than that is not consuming.
	ch := make(chan event, 256)
	h.subs[ch] = struct{}{}
	return ch
}

// unsubscribe removes a subscriber. Safe after close.
func (h *hub) unsubscribe(ch chan event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, ch)
}

// publish fans one event out without blocking: full subscribers drop
// the record.
func (h *hub) publish(ev event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for ch := range h.subs {
		select {
		case ch <- ev:
		default:
			h.dropped.Inc()
		}
	}
}

// close ends the stream: every subscriber's channel is closed and
// future subscribes return nil.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
}

// nodeSample is one node's observables at a sample instant.
type nodeSample struct {
	Temp  float64 `json:"temp_c"`
	Duty  float64 `json:"duty_pct"`
	Freq  float64 `json:"freq_ghz"`
	Power float64 `json:"power_w"`
}

// sampleRec is the payload of a "sample" stream event.
type sampleRec struct {
	TMS   int64        `json:"t_ms"`
	Nodes []nodeSample `json:"nodes"`
}

// faultRec is the payload of a "fault" stream event: one target's
// folded fault state changed between samples.
type faultRec struct {
	TMS    int64        `json:"t_ms"`
	Target string       `json:"target"`
	Active bool         `json:"active"`
	State  faults.State `json:"state"`
}

// failSafeRec is the payload of a "failsafe" stream event: one
// controller lane's fail-safe escalation engaged or recovered.
type failSafeRec struct {
	TMS     int64  `json:"t_ms"`
	Node    string `json:"node"`
	Lane    string `json:"lane"`
	Engaged bool   `json:"engaged"`
}

// lane is one edge-detected fail-safe source: a node's control lane.
type lane struct {
	config.Lane
	node    string
	engaged bool
}

// streamProbe is a cluster sampler sink publishing telemetry: each
// frame becomes a "sample" event, and fault and fail-safe transitions
// are edge-detected at the same instant.
type streamProbe struct {
	hub *hub

	// lanes, injs and prevFault are wired at construction; sample only
	// reads the cheap accessors and flips the edge state in place.
	lanes     []lane
	targets   []string
	injs      []*faults.Injector
	prevFault []faults.State

	// rec/frec/fsrec are reused across emissions and passed by
	// pointer, so the step path never boxes a record into an
	// interface; only the marshaled bytes escape.
	rec   sampleRec
	frec  faultRec
	fsrec failSafeRec
	// encodeErrs counts marshal failures (nil-safe; structurally
	// impossible for these payloads, but never swallowed silently).
	encodeErrs *metrics.Counter
}

func newStreamProbe(rig *config.Rig, h *hub, encodeErrs *metrics.Counter) *streamProbe {
	p := &streamProbe{
		hub:        h,
		rec:        sampleRec{Nodes: make([]nodeSample, len(rig.Cluster.Nodes))},
		encodeErrs: encodeErrs,
	}
	for i, nc := range rig.Nodes {
		name := rig.Cluster.Nodes[i].Name
		for _, l := range nc.Lanes {
			p.lanes = append(p.lanes, lane{Lane: l, node: name})
		}
	}
	if rig.Plane != nil {
		for _, n := range rig.Cluster.Nodes {
			p.targets = append(p.targets, n.Name)
			p.injs = append(p.injs, rig.Plane.Injector(n.Name))
		}
		p.prevFault = make([]faults.State, len(p.injs))
	}
	return p
}

// sample is the cluster.Sink: it publishes the frame, then the
// fail-safe and fault edges since the previous frame.
func (p *streamProbe) sample(now time.Duration, frame []float64) {
	nowMS := now.Milliseconds()
	p.rec.TMS = nowMS
	for i := range p.rec.Nodes {
		f := frame[i*cluster.FrameWidth:]
		p.rec.Nodes[i] = nodeSample{
			Temp:  f[cluster.FrameTemp],
			Duty:  f[cluster.FrameDuty],
			Freq:  f[cluster.FrameFreq],
			Power: f[cluster.FramePower],
		}
	}
	p.emit("sample", &p.rec)

	for i := range p.lanes {
		l := &p.lanes[i]
		if eng := l.Binding.FailSafe(); eng != l.engaged {
			l.engaged = eng
			p.fsrec = failSafeRec{TMS: nowMS, Node: l.node, Lane: l.Name, Engaged: eng}
			p.emit("failsafe", &p.fsrec)
		}
	}

	for i, inj := range p.injs {
		if st := inj.State(); st != p.prevFault[i] {
			p.prevFault[i] = st
			p.frec = faultRec{TMS: nowMS, Target: p.targets[i], Active: st != (faults.State{}), State: st}
			p.emit("fault", &p.frec)
		}
	}
}

// emit marshals and publishes one event.
func (p *streamProbe) emit(kind string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		p.encodeErrs.Inc()
		return
	}
	p.hub.publish(event{kind: kind, data: data})
}
