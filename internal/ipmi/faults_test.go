package ipmi

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"thermctl/internal/faults"
	"thermctl/internal/rng"
)

// TestTimeoutOnSilentServer is the regression for the no-deadline bug: a
// BMC (or network) that accepts the connection but never replies used to
// hang the caller — and with it the control loop — forever.
func TestTimeoutOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow everything, answer nothing.
			go func() { _, _ = io.Copy(io.Discard, conn) }()
		}
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(100 * time.Millisecond)

	start := time.Now()
	_, err = cl.Send(Request{NetFn: NetFnApp, Cmd: CmdGetDeviceID})
	if err == nil {
		t.Fatal("request against a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("request took %v to fail, want ≈100ms", elapsed)
	}
}

func TestDialSetsDefaultTimeout(t *testing.T) {
	b, _, _ := newBMCRig(t)
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
	if cl.timeout != DefaultTimeout {
		t.Errorf("dialed client timeout = %v, want %v", cl.timeout, DefaultTimeout)
	}
	// A healthy server still answers under the deadline regime.
	if _, err := NewClient(cl).ReadSensor(1); err != nil {
		t.Errorf("read over healthy connection: %v", err)
	}
}

func TestFaultTransportDrop(t *testing.T) {
	b, _, _ := newBMCRig(t)
	ft := &FaultTransport{
		T:   &Local{H: b},
		Inj: faults.Static(faults.State{IPMIDrop: true}),
	}
	if _, err := ft.Send(Request{NetFn: NetFnApp, Cmd: CmdGetDeviceID}); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestFaultTransportLatency(t *testing.T) {
	b, _, _ := newBMCRig(t)
	var slept time.Duration
	ft := &FaultTransport{
		T:     &Local{H: b},
		Inj:   faults.Static(faults.State{IPMILatency: 25 * time.Millisecond}),
		Sleep: func(d time.Duration) { slept += d },
	}
	if _, err := ft.Send(Request{NetFn: NetFnApp, Cmd: CmdGetDeviceID}); err != nil {
		t.Fatalf("latency episode must delay, not fail: %v", err)
	}
	if slept != 25*time.Millisecond {
		t.Errorf("slept %v, want 25ms", slept)
	}
	// A nil Sleep hook (simulation) must not crash or fail.
	ft.Sleep = nil
	if _, err := ft.Send(Request{NetFn: NetFnApp, Cmd: CmdGetDeviceID}); err != nil {
		t.Errorf("nil sleep hook: %v", err)
	}
}

// flakyTransport fails the first n sends.
type flakyTransport struct {
	inner Transport
	fails int
	sends int
}

func (f *flakyTransport) Send(req Request) (Response, error) {
	f.sends++
	if f.sends <= f.fails {
		return Response{}, errors.New("transient NAK")
	}
	return f.inner.Send(req)
}

func TestRetryTransportAbsorbsTransients(t *testing.T) {
	b, set, _ := newBMCRig(t)
	set(52)
	fl := &flakyTransport{inner: &Local{H: b}, fails: 2}
	rt := &RetryTransport{
		T: fl,
		R: faults.NewRetrier(faults.DefaultRetryPolicy(), rng.New(1), nil),
	}
	v, err := NewClient(rt).ReadSensor(1)
	if err != nil {
		t.Fatalf("retry transport surfaced a transient failure: %v", err)
	}
	if v < 51 || v > 53 {
		t.Errorf("reading = %v, want ≈52", v)
	}
	if fl.sends != 3 {
		t.Errorf("sends = %d, want 3 (two failures absorbed)", fl.sends)
	}
}

func TestRetryTransportGivesUp(t *testing.T) {
	fl := &flakyTransport{inner: &Local{}, fails: 1 << 30}
	rt := &RetryTransport{
		T: fl,
		R: faults.NewRetrier(faults.DefaultRetryPolicy(), rng.New(1), nil),
	}
	if _, err := rt.Send(Request{NetFn: NetFnApp, Cmd: CmdGetDeviceID}); err == nil {
		t.Fatal("permanently failing transport reported success")
	}
	if fl.sends != faults.DefaultRetryPolicy().MaxAttempts {
		t.Errorf("sends = %d, want MaxAttempts", fl.sends)
	}
}
