package ipmi

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
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
	cl.timeout = 100 * time.Millisecond

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
