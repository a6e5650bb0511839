package ipmi

import (
	"fmt"
	"math"
	"sort"
	"time"

	"thermctl/internal/adt7467"
	"thermctl/internal/metrics"
)

// SensorReader supplies one sensor's current value.
type SensorReader func() float64

// SensorRecord describes one entry of the BMC's sensor data repository.
type SensorRecord struct {
	Number uint8
	Name   string
	Unit   string // "degrees C", "RPM", "Watts"
	Read   SensorReader
}

// BMC is the baseboard management controller of one node. It owns a
// sensor repository and (optionally) an ADT7467 driver on its private
// i2c master for out-of-band fan control. It is owned by the goroutine
// that steps its node; not safe for concurrent use. A Server reaches it
// from connection goroutines only under the lock it was given.
type BMC struct {
	sensors  map[uint8]SensorRecord
	sorted   []SensorRecord // sensors by number, rebuilt on Register
	fan      *adt7467.Driver
	deviceID [2]byte
	handled  uint64

	// requests and latency are the optional nil-safe metric handles
	// (see InstrumentMetrics).
	requests *metrics.Counter
	latency  *metrics.Histogram
}

// NewBMC returns a BMC with an empty sensor repository. fanDrv may be
// nil for nodes whose fans are not BMC-managed.
func NewBMC(fanDrv *adt7467.Driver) *BMC {
	return &BMC{
		sensors:  make(map[uint8]SensorRecord),
		fan:      fanDrv,
		deviceID: [2]byte{0x20, 0x01}, // device ID, firmware major
	}
}

// AddSensor registers a sensor record. It returns an error if the
// number is taken.
func (b *BMC) AddSensor(rec SensorRecord) error {
	if _, ok := b.sensors[rec.Number]; ok {
		return fmt.Errorf("ipmi: sensor %d already present", rec.Number)
	}
	if rec.Read == nil {
		return fmt.Errorf("ipmi: sensor %d has no reader", rec.Number)
	}
	b.sensors[rec.Number] = rec
	// Rebuild the sorted view here, at registration (wiring) time, so
	// Sensors — on the SDR request path — allocates nothing.
	b.sorted = append(b.sorted, rec)
	sort.Slice(b.sorted, func(i, j int) bool { return b.sorted[i].Number < b.sorted[j].Number })
	return nil
}

// Sensors lists the repository sorted by sensor number. The slice is
// shared with the BMC — callers must treat it as read-only.
func (b *BMC) Sensors() []SensorRecord { return b.sorted }

// Handled returns the number of requests processed, for tests and
// observability.
//
//thermlint:allow deadcode -- oracle: the IPMI race test counts the requests served
func (b *BMC) Handled() uint64 { return b.handled }

// InstrumentMetrics registers a request counter and a request-latency
// histogram on reg with the given constant labels and attaches them.
// Wiring-time only: attach before the first transport is connected.
func (b *BMC) InstrumentMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	b.requests = reg.NewCounter("thermctl_ipmi_requests_total",
		"IPMI requests handled by the BMC", labels...)
	b.latency = reg.NewHistogram("thermctl_ipmi_request_seconds",
		"IPMI request handling latency", nil, labels...)
}

// Handle implements Handler.
func (b *BMC) Handle(req Request) Response {
	b.handled++
	b.requests.Inc()
	if b.latency != nil {
		defer b.latency.ObserveSince(time.Now())
	}
	return b.dispatch(req)
}

// dispatch routes one request to its handler.
func (b *BMC) dispatch(req Request) Response {
	switch {
	case req.NetFn == NetFnApp && req.Cmd == CmdGetDeviceID:
		return Response{CC: CCOK, Data: b.deviceID[:]}
	case req.NetFn == NetFnSensor && req.Cmd == CmdGetSensorReading:
		return b.getSensor(req)
	case req.NetFn == NetFnSensor && req.Cmd == CmdGetSDRCount:
		return Response{CC: CCOK, Data: []byte{byte(len(b.sensors))}}
	case req.NetFn == NetFnSensor && req.Cmd == CmdGetSDR:
		return b.getSDR(req)
	case req.NetFn == NetFnOEM:
		return b.oem(req)
	default:
		return Response{CC: CCInvalidCommand}
	}
}

// getSensor returns the reading as a signed decimal-scaled value:
// one signed exponent byte e followed by a signed 32-bit big-endian
// mantissa m, reading = m·10^e. Temperatures and power use e=-2
// (centi-units, preserving the lm-sensors resolution the controller
// needs — raw IPMI's 8-bit readings would quantize too hard); RPM uses
// e=0 so multi-thousand readings cannot overflow.
func (b *BMC) getSensor(req Request) Response {
	if len(req.Data) != 1 {
		return Response{CC: CCParamOutOfRange}
	}
	rec, ok := b.sensors[req.Data[0]]
	if !ok {
		return Response{CC: CCSensorNotFound}
	}
	v := rec.Read()
	exp := int8(-2)
	if rec.Unit == "RPM" {
		exp = 0
	}
	m := int32(math.Round(v * math.Pow(10, -float64(exp))))
	um := uint32(m)
	return Response{CC: CCOK, Data: []byte{
		byte(exp), byte(um >> 24), byte(um >> 16), byte(um >> 8), byte(um),
	}}
}

// getSDR returns record data for the idx-th sensor (sorted by number):
// [sensor number, unit code, name...]. Unit codes: 0 °C, 1 RPM, 2 W,
// 255 other.
func (b *BMC) getSDR(req Request) Response {
	if len(req.Data) != 1 {
		return Response{CC: CCParamOutOfRange}
	}
	recs := b.Sensors()
	idx := int(req.Data[0])
	if idx >= len(recs) {
		return Response{CC: CCSensorNotFound}
	}
	rec := recs[idx]
	unit := byte(0xFF)
	switch rec.Unit {
	case "degrees C":
		unit = 0
	case "RPM":
		unit = 1
	case "Watts":
		unit = 2
	}
	data := append([]byte{rec.Number, unit}, []byte(rec.Name)...)
	return Response{CC: CCOK, Data: data}
}

func (b *BMC) oem(req Request) Response {
	if b.fan == nil {
		return Response{CC: CCInvalidCommand}
	}
	switch req.Cmd {
	case CmdOEMGetFanDuty:
		d, err := b.fan.Duty()
		if err != nil {
			return Response{CC: CCUnspecified}
		}
		return Response{CC: CCOK, Data: []byte{byte(math.Round(d))}}
	case CmdOEMSetFanDuty:
		if len(req.Data) != 1 || req.Data[0] > 100 {
			return Response{CC: CCParamOutOfRange}
		}
		if err := b.fan.SetDuty(float64(req.Data[0])); err != nil {
			return Response{CC: CCUnspecified}
		}
		return Response{CC: CCOK}
	case CmdOEMGetFanMode:
		m, err := b.fan.Manual()
		if err != nil {
			return Response{CC: CCUnspecified}
		}
		mode := byte(FanModeAuto)
		if m {
			mode = FanModeManual
		}
		return Response{CC: CCOK, Data: []byte{mode}}
	case CmdOEMSetFanMode:
		if len(req.Data) != 1 || req.Data[0] > FanModeManual {
			return Response{CC: CCParamOutOfRange}
		}
		if err := b.fan.SetManual(req.Data[0] == FanModeManual); err != nil {
			return Response{CC: CCUnspecified}
		}
		return Response{CC: CCOK}
	default:
		return Response{CC: CCInvalidCommand}
	}
}
