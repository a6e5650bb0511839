package ipmi

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"thermctl/internal/adt7467"
	"thermctl/internal/fan"
	"thermctl/internal/i2c"
	"thermctl/internal/sensor"
)

// local is an in-process transport: requests go straight to the
// handler, on the caller's goroutine.
type local struct{ h Handler }

func (l local) Send(req Request) (Response, error) { return l.h.Handle(req), nil }

func newBMCRig(t *testing.T) (*BMC, func(float64), *fan.Fan) {
	t.Helper()
	temp := 45.0
	src := sensor.SourceFunc(func() float64 { return temp })
	sens := sensor.New(sensor.Config{}, src, nil)
	f := fan.New(fan.Default(), 10)
	chip := new(adt7467.Chip)
	adt7467.NewChipAt(chip, new(i2c.RegisterFile), sens, f)
	bus := i2c.NewBus()
	if err := bus.Attach(adt7467.DefaultAddr, chip); err != nil {
		t.Fatal(err)
	}
	drv, err := adt7467.NewDriver(bus, adt7467.DefaultAddr)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBMC(drv)
	if err := b.AddSensor(SensorRecord{Number: 1, Name: "CPU Temp", Unit: "degrees C", Read: sens.Read}); err != nil {
		t.Fatal(err)
	}
	return b, func(v float64) { temp = v }, f
}

func TestEncodingRoundTrip(t *testing.T) {
	if err := quick.Check(func(netfn, cmd uint8, data []byte) bool {
		if len(data) > maxFrame-2 {
			data = data[:maxFrame-2]
		}
		frame, err := EncodeRequest(Request{NetFn: netfn, Cmd: cmd, Data: data})
		if err != nil {
			return false
		}
		got, err := DecodeRequest(frame[2:])
		if err != nil {
			return false
		}
		if got.NetFn != netfn || got.Cmd != cmd || len(got.Data) != len(data) {
			return false
		}
		for i := range data {
			if got.Data[i] != data[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsOversized(t *testing.T) {
	if _, err := EncodeRequest(Request{Data: make([]byte, maxFrame)}); err == nil {
		t.Error("oversized request encoded")
	}
	if _, err := EncodeResponse(Response{Data: make([]byte, maxFrame)}); err == nil {
		t.Error("oversized response encoded")
	}
}

func TestDecodeShortFrames(t *testing.T) {
	if _, err := DecodeRequest([]byte{0x06}); err == nil {
		t.Error("1-byte request decoded")
	}
	if _, err := DecodeResponse(nil); err == nil {
		t.Error("empty response decoded")
	}
}

func TestGetDeviceID(t *testing.T) {
	b, _, _ := newBMCRig(t)
	c := NewClient(local{b})
	resp, err := c.T.Send(Request{NetFn: NetFnApp, Cmd: CmdGetDeviceID})
	if err == nil {
		err = resp.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Data) < 2 || resp.Data[0] != 0x20 || resp.Data[1] != 0x01 {
		t.Errorf("device ID response = % x, want 20 01 ...", resp.Data)
	}
}

func TestReadSensorPreservesResolution(t *testing.T) {
	b, set, _ := newBMCRig(t)
	c := NewClient(local{b})
	set(51.25)
	v, err := c.ReadSensor(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-51.25) > 0.005 {
		t.Errorf("sensor reading = %v, want 51.25 (centi-degree resolution)", v)
	}
}

func TestReadMissingSensor(t *testing.T) {
	b, _, _ := newBMCRig(t)
	c := NewClient(local{b})
	if _, err := c.ReadSensor(99); err == nil {
		t.Error("missing sensor read succeeded")
	}
	resp := b.Handle(Request{NetFn: NetFnSensor, Cmd: CmdGetSensorReading, Data: []byte{99}})
	if resp.CC != CCSensorNotFound {
		t.Errorf("CC = %#x, want CCSensorNotFound", resp.CC)
	}
}

func TestSensorRepositoryManagement(t *testing.T) {
	b, _, _ := newBMCRig(t)
	if err := b.AddSensor(SensorRecord{Number: 1, Read: func() float64 { return 0 }}); err == nil {
		t.Error("duplicate sensor number accepted")
	}
	if err := b.AddSensor(SensorRecord{Number: 2}); err == nil {
		t.Error("sensor without reader accepted")
	}
	if err := b.AddSensor(SensorRecord{Number: 2, Name: "Fan", Read: func() float64 { return 0 }}); err != nil {
		t.Fatal(err)
	}
	s := b.Sensors()
	if len(s) != 2 || s[0].Number != 1 || s[1].Number != 2 {
		t.Errorf("Sensors = %+v", s)
	}
}

func TestOutOfBandFanControl(t *testing.T) {
	b, _, f := newBMCRig(t)
	c := NewClient(local{b})
	if err := c.SetFanManual(true); err != nil {
		t.Fatal(err)
	}
	if m, err := c.FanManual(); err != nil || !m {
		t.Fatalf("FanManual = %v, %v", m, err)
	}
	if err := c.SetFanDuty(80); err != nil {
		t.Fatal(err)
	}
	if d := f.Duty(); math.Abs(d-80) > 1 {
		t.Errorf("fan duty after OOB command = %v, want ≈80", d)
	}
	got, err := c.FanDuty()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-80) > 1 {
		t.Errorf("FanDuty readback = %v", got)
	}
}

func TestSetFanDutyValidation(t *testing.T) {
	b, _, _ := newBMCRig(t)
	c := NewClient(local{b})
	if err := c.SetFanDuty(150); err == nil {
		t.Error("duty 150 accepted by client")
	}
	resp := b.Handle(Request{NetFn: NetFnOEM, Cmd: CmdOEMSetFanDuty, Data: []byte{200}})
	if resp.CC != CCParamOutOfRange {
		t.Errorf("CC = %#x, want CCParamOutOfRange", resp.CC)
	}
}

func TestUnknownCommand(t *testing.T) {
	b, _, _ := newBMCRig(t)
	resp := b.Handle(Request{NetFn: 0x0A, Cmd: 0x55})
	if resp.CC != CCInvalidCommand {
		t.Errorf("CC = %#x, want CCInvalidCommand", resp.CC)
	}
}

func TestOEMWithoutFanDriver(t *testing.T) {
	b := NewBMC(nil)
	resp := b.Handle(Request{NetFn: NetFnOEM, Cmd: CmdOEMGetFanDuty})
	if resp.CC != CCInvalidCommand {
		t.Errorf("CC = %#x, want CCInvalidCommand for fanless BMC", resp.CC)
	}
}

func TestListSensors(t *testing.T) {
	b, _, _ := newBMCRig(t)
	_ = b.AddSensor(SensorRecord{Number: 7, Name: "PSU Power", Unit: "Watts", Read: func() float64 { return 90 }})
	_ = b.AddSensor(SensorRecord{Number: 3, Name: "Chassis Fan", Unit: "RPM", Read: func() float64 { return 2000 }})
	c := NewClient(local{b})
	got, err := c.ListSensors()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("ListSensors = %+v", got)
	}
	// Sorted by sensor number.
	if got[0].Number != 1 || got[1].Number != 3 || got[2].Number != 7 {
		t.Errorf("order: %+v", got)
	}
	if got[0].Name != "CPU Temp" || got[0].Unit != "degrees C" {
		t.Errorf("record 0: %+v", got[0])
	}
	if got[1].Unit != "RPM" || got[2].Unit != "Watts" {
		t.Errorf("units: %+v", got)
	}
}

func TestGetSDRBounds(t *testing.T) {
	b, _, _ := newBMCRig(t)
	resp := b.Handle(Request{NetFn: NetFnSensor, Cmd: CmdGetSDR, Data: []byte{99}})
	if resp.CC != CCSensorNotFound {
		t.Errorf("out-of-range SDR index: CC=%#x", resp.CC)
	}
	resp = b.Handle(Request{NetFn: NetFnSensor, Cmd: CmdGetSDR})
	if resp.CC != CCParamOutOfRange {
		t.Errorf("missing SDR index: CC=%#x", resp.CC)
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	b, set, f := newBMCRig(t)
	srv, err := ListenAndServe("127.0.0.1:0", b, new(sync.Mutex))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c := NewClient(cl)

	set(60.5)
	v, err := c.ReadSensor(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-60.5) > 0.005 {
		t.Errorf("TCP sensor reading = %v, want 60.5", v)
	}
	if err := c.SetFanManual(true); err != nil {
		t.Fatal(err)
	}
	if err := c.SetFanDuty(55); err != nil {
		t.Fatal(err)
	}
	if d := f.Duty(); math.Abs(d-55) > 1 {
		t.Errorf("fan duty over TCP = %v, want ≈55", d)
	}
}

// TestTCPConcurrentClients drives eight TCP clients against one BMC
// while the owner goroutine keeps moving the sensor source under the
// lock it handed the server. Run with -race: every client read must be
// serialized against the owner's writes by that one lock.
func TestTCPConcurrentClients(t *testing.T) {
	b, set, _ := newBMCRig(t)
	var owner sync.Mutex
	srv, err := ListenAndServe("127.0.0.1:0", b, &owner)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			c := NewClient(cl)
			for i := 0; i < 50; i++ {
				v, err := c.ReadSensor(1)
				if err != nil {
					errs <- err
					return
				}
				if v < 45 || v > 55 {
					errs <- fmt.Errorf("reading %v outside the owner's 45..55 sweep", v)
					return
				}
			}
		}()
	}
	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()
sweep:
	for i := 0; ; i++ {
		select {
		case <-clientsDone:
			break sweep
		default:
		}
		owner.Lock()
		set(45 + float64(i%11))
		owner.Unlock()
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	owner.Lock()
	handled := b.Handled()
	owner.Unlock()
	if handled != 8*50 {
		t.Errorf("BMC handled %d requests, want 400", handled)
	}
}

// TestCloseWithIdleClient is the regression for Close hanging while a
// client holds an idle connection: Close used to close only the
// listener and then wait forever on the connection goroutine blocked in
// its next read.
func TestCloseWithIdleClient(t *testing.T) {
	b, _, _ := newBMCRig(t)
	srv, err := ListenAndServe("127.0.0.1:0", b, new(sync.Mutex))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := NewClient(cl).ReadSensor(1); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close still blocked after 3s with one idle client connected")
	}
	if _, err := NewClient(cl).ReadSensor(1); err == nil {
		t.Error("read over a connection the server closed succeeded")
	}
}

func TestResponseErr(t *testing.T) {
	if (Response{CC: CCOK}).Err() != nil {
		t.Error("OK response reported an error")
	}
	if (Response{CC: CCUnspecified}).Err() == nil {
		t.Error("failed response reported no error")
	}
}

func TestNegativeSensorValue(t *testing.T) {
	b := NewBMC(nil)
	_ = b.AddSensor(SensorRecord{Number: 3, Read: func() float64 { return -12.5 }})
	c := NewClient(local{b})
	v, err := c.ReadSensor(3)
	if err != nil {
		t.Fatal(err)
	}
	if v != -12.5 {
		t.Errorf("negative reading = %v, want -12.5", v)
	}
}

var _ = errors.Is // keep errors imported if assertions change

func BenchmarkLocalRoundTrip(b *testing.B) {
	bmc := NewBMC(nil)
	_ = bmc.AddSensor(SensorRecord{Number: 1, Read: func() float64 { return 50 }})
	c := NewClient(local{bmc})
	for i := 0; i < b.N; i++ {
		_, _ = c.ReadSensor(1)
	}
}
