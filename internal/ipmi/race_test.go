package ipmi_test

import (
	"sync"
	"testing"
	"time"

	"thermctl/internal/ipmi"
	"thermctl/internal/node"
)

// TestConcurrentSensorReadsAndFanActuation hammers a node's BMC over TCP
// — several readers polling the whole repository, several actuators
// flipping the fan mode and sweeping the duty — while the owner
// goroutine keeps stepping the node, exactly as thermctld does with
// -ipmi. The devices carry no locks of their own: the one lock the
// owner holds around each Step, and hands the server, is the whole
// concurrency contract. Run with -race, any device state touched outside
// that lock shows up here.
func TestConcurrentSensorReadsAndFanActuation(t *testing.T) {
	n, err := node.New(node.DefaultConfig("hammer", 11))
	if err != nil {
		t.Fatal(err)
	}
	n.Settle(0.5)
	var owner sync.Mutex
	srv, err := ipmi.ListenAndServe("127.0.0.1:0", n.BMC, &owner)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		readers   = 4
		actuators = 2
		iters     = 200
	)
	errc := make(chan error, readers+actuators)
	var wg sync.WaitGroup

	// Readers: one TCP connection each, polling the whole repository.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc, err := ipmi.Dial(srv.Addr().String())
			if err != nil {
				errc <- err
				return
			}
			defer tc.Close()
			c := ipmi.NewClient(tc)
			for i := 0; i < iters; i++ {
				for _, num := range []uint8{node.SensorCPUTemp, node.SensorFanRPM, node.SensorSystemW, node.SensorAmbientC} {
					if _, err := c.ReadSensor(num); err != nil {
						errc <- err
						return
					}
				}
				if _, err := c.ListSensors(); err != nil {
					errc <- err
					return
				}
			}
		}()
	}

	// Actuators: flip fan mode and sweep the duty over the LAN channel.
	for a := 0; a < actuators; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			tc, err := ipmi.Dial(srv.Addr().String())
			if err != nil {
				errc <- err
				return
			}
			defer tc.Close()
			c := ipmi.NewClient(tc)
			if err := c.SetFanManual(true); err != nil {
				errc <- err
				return
			}
			for i := 0; i < iters; i++ {
				if err := c.SetFanDuty(float64(10 + (a*37+i)%90)); err != nil {
					errc <- err
					return
				}
				if _, err := c.FanDuty(); err != nil {
					errc <- err
					return
				}
			}
		}(a)
	}

	// The owner steps the node under the lock until the clients finish,
	// releasing it between steps so the BMC can answer.
	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()
	steps := 0
step:
	for {
		select {
		case <-clientsDone:
			break step
		default:
		}
		owner.Lock()
		n.Step(100 * time.Millisecond)
		owner.Unlock()
		steps++
		time.Sleep(100 * time.Microsecond)
	}
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// After Close no request runs, so the owner reads without the lock.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Per reader iteration: 4 reads, SDR count, 4 SDR records.
	if got, want := n.BMC.Handled(), uint64(readers*iters*9+actuators*(1+iters*2)); got != want {
		t.Fatalf("BMC handled %d requests, want %d", got, want)
	}
	if steps == 0 {
		t.Fatal("owner never stepped the node")
	}
	if d := n.Fan.Duty(); d < 0 || d > 100 {
		t.Fatalf("fan duty %v out of range after hammer", d)
	}
}
