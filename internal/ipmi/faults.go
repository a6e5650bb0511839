package ipmi

import (
	"errors"
	"time"

	"thermctl/internal/faults"
)

// ErrTimeout is returned by FaultTransport while an ipmi-timeout fault
// episode is active: the BMC never answered and the deadline expired.
var ErrTimeout = errors.New("ipmi: request timed out")

// FaultTransport wraps a Transport with a fault-plane injector. While an
// ipmi-timeout episode is active every request fails with ErrTimeout
// without reaching the inner transport; an ipmi-latency episode delays
// each request through the Sleep hook. Sleep may be nil (simulation:
// latency windows are then drop-free and delay-free — only the timeout
// fault has effect), or time.Sleep in a live daemon.
//
//thermlint:allow deadcode -- the out-of-band fault path: the IPMI fault tests wrap a transport with it
type FaultTransport struct {
	T     Transport
	Inj   *faults.Injector
	Sleep func(time.Duration)
}

// Send implements Transport.
func (ft *FaultTransport) Send(req Request) (Response, error) {
	st := ft.Inj.State()
	if st.IPMIDrop {
		return Response{}, ErrTimeout
	}
	if st.IPMILatency > 0 && ft.Sleep != nil {
		ft.Sleep(st.IPMILatency)
	}
	return ft.T.Send(req)
}

// RetryTransport retries failed requests through a faults.Retrier —
// bounded attempts with jittered backoff — before surfacing the error.
// IPMI commands in this repo are idempotent (sensor reads, absolute
// duty writes), so re-sending is safe.
//
//thermlint:allow deadcode -- the out-of-band retry path: the IPMI fault tests wrap a transport with it
type RetryTransport struct {
	T Transport
	R *faults.Retrier
}

// Send implements Transport. It drives the retrier's closure-free
// Attempt loop: a Do closure would allocate on every command sent from
// Step-reachable code.
func (rt *RetryTransport) Send(req Request) (Response, error) {
	var resp Response
	var err error
	for a := rt.R.Begin(); a.Next(&err); {
		resp, err = rt.T.Send(req)
	}
	if err != nil {
		return Response{}, err
	}
	return resp, nil
}
