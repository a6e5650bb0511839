package ipmi

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Server serves BMC requests over a stream listener (the RMCP-lite LAN
// channel of this reproduction). It is the one place a foreign
// goroutine reaches a node's devices: every Handle runs under the
// Locker the server was given, which the goroutine that steps the node
// also holds around each step.
type Server struct {
	h    Handler
	lock sync.Locker
	ln   net.Listener
	wg   sync.WaitGroup

	// done is cancelled by Close; each live connection closes itself
	// on it, unblocking a read that waits on an idle client.
	done   context.Context
	cancel context.CancelFunc
}

// Serve starts serving h on ln in background goroutines and returns
// immediately. Each request is handled with lock held; pass the lock
// the node's stepping goroutine holds around Step. Close the server to
// stop.
func Serve(ln net.Listener, h Handler, lock sync.Locker) *Server {
	s := &Server{h: h, lock: lock, ln: ln}
	s.done, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// ListenAndServe listens on addr ("host:port"; use ":0" or
// "127.0.0.1:0" for an ephemeral port) and serves h under lock.
func ListenAndServe(addr string, h Handler, lock sync.Locker) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ipmi: listen: %w", err)
	}
	return Serve(ln, h, lock), nil
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every live connection and waits for
// their goroutines to finish. When it returns, no Handle is running or
// will run.
func (s *Server) Close() error {
	s.cancel()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	stop := context.AfterFunc(s.done, func() { conn.Close() })
	defer stop()
	for {
		body, err := readFrame(conn)
		if err != nil {
			return
		}
		req, err := DecodeRequest(body)
		var resp Response
		if err != nil {
			resp = Response{CC: CCInvalidCommand}
		} else {
			s.lock.Lock()
			resp = s.h.Handle(req)
			s.lock.Unlock()
		}
		frame, err := EncodeResponse(resp)
		if err != nil {
			frame, _ = EncodeResponse(Response{CC: CCUnspecified})
		}
		if _, err := conn.Write(frame); err != nil {
			return
		}
	}
}

func readFrame(r io.Reader) ([]byte, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint16(lenBuf[:])
	if int(n) > maxFrame {
		return nil, fmt.Errorf("ipmi: frame length %d exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// DefaultTimeout is the per-request deadline a dialed TCPClient starts
// with. A BMC answers a sensor read in well under a second; a transport
// that stays silent this long is wedged, and without a deadline the
// caller (the control loop) would hang with it.
const DefaultTimeout = 2 * time.Second

// TCPClient is a Transport over one TCP connection. Safe for concurrent
// use; requests are serialized on the connection.
type TCPClient struct {
	mu      sync.Mutex
	conn    net.Conn
	timeout time.Duration
}

// Dial connects to an ipmi Server at addr. The client starts with
// DefaultTimeout as its per-request deadline.
func Dial(addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ipmi: dial: %w", err)
	}
	return &TCPClient{conn: conn, timeout: DefaultTimeout}, nil
}

// Send implements Transport. The whole request — write plus response
// read — runs under the per-request deadline; an expired deadline
// surfaces as a timeout error and the connection is no longer usable
// for framing (a late response would desynchronize the stream).
func (c *TCPClient) Send(req Request) (Response, error) {
	frame, err := EncodeRequest(req)
	if err != nil {
		return Response{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return Response{}, fmt.Errorf("ipmi: deadline: %w", err)
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	if _, err := c.conn.Write(frame); err != nil {
		return Response{}, fmt.Errorf("ipmi: send: %w", err)
	}
	body, err := readFrame(c.conn)
	if err != nil {
		return Response{}, fmt.Errorf("ipmi: recv: %w", err)
	}
	return DecodeResponse(body)
}

// Close closes the connection.
func (c *TCPClient) Close() error { return c.conn.Close() }
