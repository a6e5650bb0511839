package core

import (
	"sync"
	"testing"
	"time"

	"thermctl/internal/ipmi"
	"thermctl/internal/node"
	"thermctl/internal/workload"
)

// These tests back the paper's title claim: the same control law runs
// over the in-band path (sysfs, through the host) and the out-of-band
// path (IPMI, through the BMC) with equivalent results, because the
// controller is written against ports, not mechanisms.

func runFanControlOver(t *testing.T, seed uint64, oob bool) (finalTempC, finalDuty float64, errs uint64) {
	t.Helper()
	n, err := node.New(node.DefaultConfig("path", seed))
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)

	var read TempReader
	var port FanPort
	if oob {
		client := ipmi.NewClient(ipmi.Local{H: n.BMC})
		read = ipmiTemp(client, node.SensorCPUTemp)
		port = &IPMIFanPort{C: client}
	} else {
		read = SysfsTemp(n.FS, n.Hwmon.TempInput)
		port = NewSysfsFanPort(n.FS, n.Hwmon)
	}
	ctl, err := NewController(DefaultConfig(50), read,
		ActuatorBinding{Actuator: NewFanActuator(port, 100)})
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(workload.NewCPUBurn(nil))
	dt := 250 * time.Millisecond
	for i := 0; i < 1200; i++ {
		n.Step(dt)
		ctl.OnStep(n.Elapsed())
	}
	return n.TrueDieC(), n.Fan.Duty(), ctl.Binding().Errors()
}

func TestOutOfBandPathWorks(t *testing.T) {
	temp, duty, errs := runFanControlOver(t, 51, true)
	if errs != 0 {
		t.Fatalf("controller errors over IPMI: %d", errs)
	}
	if duty < 20 {
		t.Errorf("OOB-controlled fan at %.1f%%", duty)
	}
	if temp > 58 {
		t.Errorf("OOB-controlled die at %.1f °C", temp)
	}
}

func TestInBandAndOutOfBandPathsEquivalent(t *testing.T) {
	// Same seed, same workload, same controller — the two paths differ
	// only in resolution (the IPMI temp reading is centi-degree, the
	// sysfs one milli-degree; the IPMI duty command is whole-percent).
	// Steady-state results must agree closely.
	ibTemp, ibDuty, _ := runFanControlOver(t, 53, false)
	oobTemp, oobDuty, _ := runFanControlOver(t, 53, true)
	if d := abs(ibTemp - oobTemp); d > 1.5 {
		t.Errorf("paths diverge in temperature: in-band %.2f vs OOB %.2f", ibTemp, oobTemp)
	}
	if d := abs(ibDuty - oobDuty); d > 8 {
		t.Errorf("paths diverge in duty: in-band %.1f vs OOB %.1f", ibDuty, oobDuty)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestOutOfBandOverTCP runs the controller against a BMC served over a
// real TCP connection: the full out-of-band stack, wire encoding
// included. The simulation steps and the controller issues IPMI
// commands from the same goroutine, as a management station polling a
// rack would. That goroutine owns the node: it holds the server's lock
// around Step and releases it before the controller round, which waits
// on the server's connection goroutine to take the lock in turn.
func TestOutOfBandOverTCP(t *testing.T) {
	n, err := node.New(node.DefaultConfig("tcp-path", 57))
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0)
	var owner sync.Mutex
	srv, err := ipmi.ListenAndServe("127.0.0.1:0", n.BMC, &owner)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := ipmi.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	client := ipmi.NewClient(conn)

	ctl, err := NewController(DefaultConfig(50),
		ipmiTemp(client, node.SensorCPUTemp),
		ActuatorBinding{Actuator: NewFanActuator(&IPMIFanPort{C: client}, 100)})
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(workload.NewCPUBurn(nil))
	dt := 250 * time.Millisecond
	for i := 0; i < 600; i++ {
		owner.Lock()
		n.Step(dt)
		owner.Unlock()
		ctl.OnStep(n.Elapsed())
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if ctl.Binding().Errors() != 0 {
		t.Fatalf("controller errors over TCP: %d", ctl.Binding().Errors())
	}
	if n.Fan.Duty() < 15 {
		t.Errorf("TCP-controlled fan at %.1f%%", n.Fan.Duty())
	}
}
