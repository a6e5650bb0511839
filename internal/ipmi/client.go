package ipmi

import (
	"fmt"
	"math"
)

// Client wraps a Transport with typed command helpers — the `ipmitool`
// of this reproduction.
type Client struct {
	T Transport
}

// NewClient returns a client over t.
func NewClient(t Transport) *Client { return &Client{T: t} }

// SensorInfo describes one repository entry as reported over the wire.
type SensorInfo struct {
	Number uint8
	Name   string
	Unit   string
}

// ListSensors walks the BMC's sensor repository.
func (c *Client) ListSensors() ([]SensorInfo, error) {
	resp, err := c.T.Send(Request{NetFn: NetFnSensor, Cmd: CmdGetSDRCount})
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	if len(resp.Data) != 1 {
		return nil, fmt.Errorf("ipmi: malformed SDR count")
	}
	n := int(resp.Data[0])
	out := make([]SensorInfo, 0, n)
	for i := 0; i < n; i++ {
		r, err := c.T.Send(Request{NetFn: NetFnSensor, Cmd: CmdGetSDR, Data: []byte{byte(i)}})
		if err != nil {
			return nil, err
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if len(r.Data) < 2 {
			return nil, fmt.Errorf("ipmi: short SDR record %d", i)
		}
		unit := "other"
		switch r.Data[1] {
		case 0:
			unit = "degrees C"
		case 1:
			unit = "RPM"
		case 2:
			unit = "Watts"
		}
		out = append(out, SensorInfo{Number: r.Data[0], Unit: unit, Name: string(r.Data[2:])})
	}
	return out, nil
}

// ReadSensor returns the value of sensor num in its natural unit.
func (c *Client) ReadSensor(num uint8) (float64, error) {
	resp, err := c.T.Send(Request{NetFn: NetFnSensor, Cmd: CmdGetSensorReading, Data: []byte{num}})
	if err != nil {
		return 0, err
	}
	if err := resp.Err(); err != nil {
		return 0, err
	}
	if len(resp.Data) != 5 {
		return 0, fmt.Errorf("ipmi: sensor reading has %d bytes, want 5", len(resp.Data))
	}
	exp := int8(resp.Data[0])
	m := int32(uint32(resp.Data[1])<<24 | uint32(resp.Data[2])<<16 |
		uint32(resp.Data[3])<<8 | uint32(resp.Data[4]))
	return float64(m) * math.Pow(10, float64(exp)), nil
}

// FanDuty returns the current fan duty in percent.
func (c *Client) FanDuty() (float64, error) {
	resp, err := c.T.Send(Request{NetFn: NetFnOEM, Cmd: CmdOEMGetFanDuty})
	if err != nil {
		return 0, err
	}
	if err := resp.Err(); err != nil {
		return 0, err
	}
	if len(resp.Data) != 1 {
		return 0, fmt.Errorf("ipmi: fan duty has %d bytes, want 1", len(resp.Data))
	}
	return float64(resp.Data[0]), nil
}

// SetFanDuty commands the fan duty in percent (0..100). The BMC must be
// in manual fan mode for the command to move the fan.
func (c *Client) SetFanDuty(percent float64) error {
	if percent < 0 || percent > 100 {
		return fmt.Errorf("ipmi: duty %v out of range", percent)
	}
	//thermlint:allow hotalloc -- one-byte request payload per fan command at actuation cadence, not per control round
	resp, err := c.T.Send(Request{NetFn: NetFnOEM, Cmd: CmdOEMSetFanDuty, Data: []byte{byte(percent + 0.5)}})
	if err != nil {
		return err
	}
	return resp.Err()
}

// SetFanManual switches the fan between BMC-manual and chip-automatic
// control.
func (c *Client) SetFanManual(manual bool) error {
	mode := byte(FanModeAuto)
	if manual {
		mode = FanModeManual
	}
	//thermlint:allow hotalloc -- one-byte request payload per mode switch (first use only), not per control round
	resp, err := c.T.Send(Request{NetFn: NetFnOEM, Cmd: CmdOEMSetFanMode, Data: []byte{mode}})
	if err != nil {
		return err
	}
	return resp.Err()
}

// FanManual reads back whether the fan is in manual mode.
func (c *Client) FanManual() (bool, error) {
	resp, err := c.T.Send(Request{NetFn: NetFnOEM, Cmd: CmdOEMGetFanMode})
	if err != nil {
		return false, err
	}
	if err := resp.Err(); err != nil {
		return false, err
	}
	if len(resp.Data) != 1 {
		return false, fmt.Errorf("ipmi: fan mode has %d bytes, want 1", len(resp.Data))
	}
	return resp.Data[0] == FanModeManual, nil
}
