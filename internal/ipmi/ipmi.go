// Package ipmi implements a miniature IPMI-style out-of-band management
// plane: a baseboard management controller (BMC) with a sensor
// repository and fan-control commands, a wire encoding, and a TCP
// transport.
//
// The paper reaches its fan controller through a PCI-attached i2c
// adapter; on modern servers the same chip sits behind the BMC and is
// driven over IPMI. Either way the essential property is identical and
// is what "out-of-band" means: the cooling knob is actuated by a
// controller *outside the host's critical execution path*, so moving it
// costs the application nothing. This package supplies that path for the
// simulated node — the BMC owns its own i2c master to the ADT7467 and
// answers sensor/fan commands without involving the host CPU model.
//
// The protocol is deliberately a subset: netfn/cmd/payload requests with
// completion-coded responses, framed with a 16-bit length prefix on
// stream transports. It is not interoperable with RMCP+, but the command
// numbers follow the IPMI 2.0 spec where one exists.
package ipmi

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Network function codes (IPMI 2.0 table 5-1; even = request).
const (
	NetFnApp    = 0x06
	NetFnSensor = 0x04
	NetFnOEM    = 0x30 // OEM extension: fan control, as vendors do
)

// Command codes.
const (
	CmdGetDeviceID      = 0x01 // NetFnApp
	CmdGetSensorReading = 0x2D // NetFnSensor
	CmdGetSDRCount      = 0x20 // NetFnSensor (simplified SDR repository)
	CmdGetSDR           = 0x21 // NetFnSensor: data[0] = record index
	CmdOEMGetFanDuty    = 0x01 // NetFnOEM
	CmdOEMSetFanDuty    = 0x02 // NetFnOEM
	CmdOEMGetFanMode    = 0x03 // NetFnOEM
	CmdOEMSetFanMode    = 0x04 // NetFnOEM
)

// Completion codes (IPMI 2.0 table 5-2).
const (
	CCOK              = 0x00
	CCInvalidCommand  = 0xC1
	CCParamOutOfRange = 0xC9
	CCSensorNotFound  = 0xCB
	CCUnspecified     = 0xFF
)

// Fan mode values for CmdOEM{Get,Set}FanMode.
const (
	FanModeAuto   = 0x00 // chip's static curve owns the fan
	FanModeManual = 0x01 // BMC/host commands own the fan
)

// Request is one IPMI message.
type Request struct {
	NetFn uint8
	Cmd   uint8
	Data  []byte
}

// Response is the reply to a Request.
type Response struct {
	CC   uint8
	Data []byte
}

// CCError is a non-OK completion code as an error. Converting a
// one-byte value into the error interface is allocation-free (the
// runtime interns small values), and the message is only formatted when
// something actually prints the error.
type CCError uint8

// Error implements error.
func (e CCError) Error() string {
	return fmt.Sprintf("ipmi: completion code %#02x", uint8(e))
}

// Err converts a non-OK completion code into an error.
func (r Response) Err() error {
	if r.CC == CCOK {
		return nil
	}
	return CCError(r.CC)
}

// Transport delivers requests to a BMC and returns its responses.
type Transport interface {
	Send(req Request) (Response, error)
}

// Handler processes requests; the BMC implements it, and a Server
// serves it over TCP.
type Handler interface {
	Handle(req Request) Response
}

// --- Wire encoding (for stream transports) ---
//
// Request frame:  u16 length | u8 netfn | u8 cmd | payload
// Response frame: u16 length | u8 cc    | payload
// Lengths count the bytes after the length field. Big-endian, as IPMI's
// LAN framing is network order.

// maxFrame bounds a frame payload to keep a malicious peer from forcing
// large allocations.
const maxFrame = 4096

// EncodeRequest serializes req into a frame.
func EncodeRequest(req Request) ([]byte, error) {
	n := 2 + len(req.Data)
	if n > maxFrame {
		return nil, fmt.Errorf("ipmi: request payload %d exceeds frame limit", len(req.Data))
	}
	buf := make([]byte, 2+n)
	binary.BigEndian.PutUint16(buf, uint16(n))
	buf[2] = req.NetFn
	buf[3] = req.Cmd
	copy(buf[4:], req.Data)
	return buf, nil
}

// DecodeRequest parses a frame body (after the length prefix).
func DecodeRequest(body []byte) (Request, error) {
	if len(body) < 2 {
		return Request{}, errors.New("ipmi: short request frame")
	}
	return Request{NetFn: body[0], Cmd: body[1], Data: append([]byte(nil), body[2:]...)}, nil
}

// EncodeResponse serializes resp into a frame.
func EncodeResponse(resp Response) ([]byte, error) {
	n := 1 + len(resp.Data)
	if n > maxFrame {
		return nil, fmt.Errorf("ipmi: response payload %d exceeds frame limit", len(resp.Data))
	}
	buf := make([]byte, 2+n)
	binary.BigEndian.PutUint16(buf, uint16(n))
	buf[2] = resp.CC
	copy(buf[3:], resp.Data)
	return buf, nil
}

// DecodeResponse parses a frame body (after the length prefix).
func DecodeResponse(body []byte) (Response, error) {
	if len(body) < 1 {
		return Response{}, errors.New("ipmi: short response frame")
	}
	return Response{CC: body[0], Data: append([]byte(nil), body[1:]...)}, nil
}
