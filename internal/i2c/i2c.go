// Package i2c simulates a register-level I²C/SMBus segment.
//
// The paper's fan controller (an Analog Devices ADT7467) hangs off an i2c
// bus reached through a PCI adapter; the authors wrote a Linux device
// driver that speaks SMBus byte-data transactions to it. This package
// reproduces that wire interface: a Bus multiplexes 7-bit addresses onto
// register-addressable devices, returns NACK errors for absent targets,
// counts transactions, and can inject transient failures so drivers can
// be tested against flaky hardware.
package i2c

import (
	"errors"
	"fmt"

	"thermctl/internal/faults"
	"thermctl/internal/rng"
)

// ErrNACK is returned when no device acknowledges the addressed transfer.
var ErrNACK = errors.New("i2c: no acknowledge from device")

// ErrBusFault is returned for injected transient bus failures
// (arbitration loss, glitched clock).
var ErrBusFault = errors.New("i2c: transient bus fault")

// Device is a register-addressable i2c target such as the ADT7467.
type Device interface {
	// ReadReg returns the value of an 8-bit register.
	ReadReg(reg uint8) (uint8, error)
	// WriteReg sets an 8-bit register.
	WriteReg(reg uint8, val uint8) error
}

// Stats counts bus traffic.
type Stats struct {
	Reads, Writes uint64 //thermlint:allow deadcode -- read only by the bus tests, through the Stats oracle
	NACKs         uint64 //thermlint:allow deadcode -- read only by the bus tests, through the Stats oracle
	Faults        uint64 //thermlint:allow deadcode -- read only by the bus tests, through the Stats oracle
}

// Bus is one i2c segment. Both the host driver and the BMC use it. It
// is owned by the stepping goroutine; not safe for concurrent use.
type Bus struct {
	devices map[uint8]Device
	stats   Stats
	// inj supplies the current fault state (transient bus faults and NAK
	// bursts); injSrc is the bus's own stream for the probabilistic
	// draws. Both nil by default: no injection.
	inj    *faults.Injector
	injSrc *rng.Source
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{devices: make(map[uint8]Device)}
}

// Attach places dev at the 7-bit address addr. It returns an error if the
// address is already occupied or outside the 7-bit range.
func (b *Bus) Attach(addr uint8, dev Device) error {
	if addr > 0x7f {
		return fmt.Errorf("i2c: address %#x exceeds 7 bits", addr)
	}
	if _, ok := b.devices[addr]; ok {
		return fmt.Errorf("i2c: address %#x already occupied", addr)
	}
	b.devices[addr] = dev
	return nil
}

// AttachInjector subscribes the bus to a fault plane: transactions fail
// with ErrBusFault at the injector's I2CFaultRate and NAK at its
// I2CNAKRate, drawn from src (the bus's own stream — sharing it would
// perturb other consumers). Wiring time only.
func (b *Bus) AttachInjector(inj *faults.Injector, src *rng.Source) {
	b.inj = inj
	b.injSrc = src
}

// fault draws the injected failure for one transaction, if any. Each
// enabled failure mode consumes exactly one draw only while its rate is
// non-zero, so attaching an idle injector never perturbs the stream.
func (b *Bus) fault() error {
	if b.inj == nil || b.injSrc == nil {
		return nil
	}
	st := b.inj.State()
	if st.I2CFaultRate > 0 && b.injSrc.Float64() < st.I2CFaultRate {
		b.stats.Faults++
		return ErrBusFault
	}
	if st.I2CNAKRate > 0 && b.injSrc.Float64() < st.I2CNAKRate {
		b.stats.NACKs++
		return fmt.Errorf("%w (injected)", ErrNACK)
	}
	return nil
}

// ReadByteData performs an SMBus "read byte data" transaction: write the
// register pointer, repeated-start, read one byte.
func (b *Bus) ReadByteData(addr, reg uint8) (uint8, error) {
	b.stats.Reads++
	if err := b.fault(); err != nil {
		return 0, err
	}
	dev, ok := b.devices[addr]
	if !ok {
		b.stats.NACKs++
		return 0, fmt.Errorf("%w (address %#x)", ErrNACK, addr)
	}
	return dev.ReadReg(reg)
}

// WriteByteData performs an SMBus "write byte data" transaction.
func (b *Bus) WriteByteData(addr, reg, val uint8) error {
	b.stats.Writes++
	if err := b.fault(); err != nil {
		return err
	}
	dev, ok := b.devices[addr]
	if !ok {
		b.stats.NACKs++
		return fmt.Errorf("%w (address %#x)", ErrNACK, addr)
	}
	return dev.WriteReg(reg, val)
}

// ReadWordData reads two consecutive registers as a little-endian word,
// the layout used by the ADT7467's tachometer counters.
func (b *Bus) ReadWordData(addr, reg uint8) (uint16, error) {
	lo, err := b.ReadByteData(addr, reg)
	if err != nil {
		return 0, err
	}
	hi, err := b.ReadByteData(addr, reg+1)
	if err != nil {
		return 0, err
	}
	return uint16(lo) | uint16(hi)<<8, nil
}

// Stats returns a snapshot of the traffic counters.
//
//thermlint:allow deadcode -- oracle: the bus tests count NACKs, faults and transactions through it
func (b *Bus) Stats() Stats {
	return b.stats
}

// RegisterFile is a helper for building devices: a 256-byte register
// space with optional per-register read/write hooks. Devices embed it
// and install hooks for the registers with side effects.
type RegisterFile struct {
	regs      [256]uint8
	readHook  map[uint8]func() uint8
	writeHook map[uint8]func(uint8)
	readOnly  map[uint8]bool
}

// NewRegisterFile returns an empty register file.
func NewRegisterFile() *RegisterFile {
	return &RegisterFile{
		readHook:  make(map[uint8]func() uint8),
		writeHook: make(map[uint8]func(uint8)),
		readOnly:  make(map[uint8]bool),
	}
}

// Set stores a value directly, bypassing hooks and read-only protection.
func (rf *RegisterFile) Set(reg, val uint8) { rf.regs[reg] = val }

// Get loads a value directly, bypassing hooks.
func (rf *RegisterFile) Get(reg uint8) uint8 { return rf.regs[reg] }

// OnRead installs a hook whose result is returned (and stored) when reg
// is read.
func (rf *RegisterFile) OnRead(reg uint8, fn func() uint8) { rf.readHook[reg] = fn }

// OnWrite installs a hook called after a bus write stores to reg.
func (rf *RegisterFile) OnWrite(reg uint8, fn func(uint8)) { rf.writeHook[reg] = fn }

// MarkReadOnly makes bus writes to reg fail, as writes to measurement
// registers do on real silicon.
func (rf *RegisterFile) MarkReadOnly(reg uint8) { rf.readOnly[reg] = true }

// ReadReg implements Device.
func (rf *RegisterFile) ReadReg(reg uint8) (uint8, error) {
	if fn, ok := rf.readHook[reg]; ok {
		rf.regs[reg] = fn()
	}
	return rf.regs[reg], nil
}

// WriteReg implements Device.
func (rf *RegisterFile) WriteReg(reg, val uint8) error {
	if rf.readOnly[reg] {
		return fmt.Errorf("i2c: register %#x is read-only", reg)
	}
	rf.regs[reg] = val
	if fn, ok := rf.writeHook[reg]; ok {
		fn(val)
	}
	return nil
}
