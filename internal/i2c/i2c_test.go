package i2c

import (
	"errors"
	"testing"
	"testing/quick"

	"thermctl/internal/faults"
	"thermctl/internal/rng"
)

func TestAttachAndRead(t *testing.T) {
	b := NewBus()
	rf := NewRegisterFile()
	rf.Set(0x10, 0xAB)
	if err := b.Attach(0x2E, rf); err != nil {
		t.Fatal(err)
	}
	v, err := b.ReadByteData(0x2E, 0x10)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xAB {
		t.Errorf("read %#x, want 0xAB", v)
	}
}

func TestNACKForAbsentDevice(t *testing.T) {
	b := NewBus()
	if _, err := b.ReadByteData(0x50, 0); !errors.Is(err, ErrNACK) {
		t.Errorf("read from empty bus: err=%v, want ErrNACK", err)
	}
	if err := b.WriteByteData(0x50, 0, 1); !errors.Is(err, ErrNACK) {
		t.Errorf("write to empty bus: err=%v, want ErrNACK", err)
	}
	st := b.Stats()
	if st.NACKs != 2 {
		t.Errorf("NACKs = %d, want 2", st.NACKs)
	}
}

func TestAttachRejectsDuplicateAnd8Bit(t *testing.T) {
	b := NewBus()
	if err := b.Attach(0x2E, NewRegisterFile()); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(0x2E, NewRegisterFile()); err == nil {
		t.Error("duplicate Attach succeeded")
	}
	if err := b.Attach(0x80, NewRegisterFile()); err == nil {
		t.Error("8-bit address accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	b := NewBus()
	_ = b.Attach(0x2E, NewRegisterFile())
	if err := quick.Check(func(reg, val uint8) bool {
		if err := b.WriteByteData(0x2E, reg, val); err != nil {
			return false
		}
		got, err := b.ReadByteData(0x2E, reg)
		return err == nil && got == val
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestReadWordLittleEndian(t *testing.T) {
	b := NewBus()
	rf := NewRegisterFile()
	rf.Set(0x28, 0x34)
	rf.Set(0x29, 0x12)
	_ = b.Attach(0x2E, rf)
	w, err := b.ReadWordData(0x2E, 0x28)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0x1234 {
		t.Errorf("word = %#x, want 0x1234", w)
	}
}

func TestFaultInjection(t *testing.T) {
	b := NewBus()
	_ = b.Attach(0x2E, NewRegisterFile())
	b.AttachInjector(faults.Static(faults.State{I2CFaultRate: 1.0}), rng.New(1)) // every transaction fails
	if _, err := b.ReadByteData(0x2E, 0); !errors.Is(err, ErrBusFault) {
		t.Errorf("err = %v, want ErrBusFault", err)
	}
	b.AttachInjector(nil, nil)
	if _, err := b.ReadByteData(0x2E, 0); err != nil {
		t.Errorf("fault injection disabled but read failed: %v", err)
	}
	if b.Stats().Faults != 1 {
		t.Errorf("Faults = %d, want 1", b.Stats().Faults)
	}
}

func TestPartialFaultRate(t *testing.T) {
	b := NewBus()
	_ = b.Attach(0x2E, NewRegisterFile())
	b.AttachInjector(faults.Static(faults.State{I2CFaultRate: 0.3}), rng.New(2))
	fails := 0
	for i := 0; i < 1000; i++ {
		if _, err := b.ReadByteData(0x2E, 0); err != nil {
			fails++
		}
	}
	if fails < 200 || fails > 400 {
		t.Errorf("30%% fault rate produced %d/1000 failures", fails)
	}
}

func TestStatsCountTraffic(t *testing.T) {
	b := NewBus()
	_ = b.Attach(0x2E, NewRegisterFile())
	for i := 0; i < 5; i++ {
		_, _ = b.ReadByteData(0x2E, 0)
	}
	for i := 0; i < 3; i++ {
		_ = b.WriteByteData(0x2E, 0, 1)
	}
	st := b.Stats()
	if st.Reads != 5 || st.Writes != 3 {
		t.Errorf("stats = %+v, want 5 reads, 3 writes", st)
	}
}

func TestRegisterFileHooks(t *testing.T) {
	rf := NewRegisterFile()
	calls := 0
	rf.OnRead(0x25, func() uint8 { calls++; return 42 })
	v, _ := rf.ReadReg(0x25)
	if v != 42 || calls != 1 {
		t.Errorf("read hook: v=%d calls=%d", v, calls)
	}
	var wrote uint8
	rf.OnWrite(0x30, func(x uint8) { wrote = x })
	_ = rf.WriteReg(0x30, 77)
	if wrote != 77 || rf.Get(0x30) != 77 {
		t.Errorf("write hook: wrote=%d stored=%d", wrote, rf.Get(0x30))
	}
}

func TestRegisterFileReadOnly(t *testing.T) {
	rf := NewRegisterFile()
	rf.Set(0x3D, 0x68)
	rf.MarkReadOnly(0x3D)
	if err := rf.WriteReg(0x3D, 0); err == nil {
		t.Error("write to read-only register succeeded")
	}
	if rf.Get(0x3D) != 0x68 {
		t.Error("read-only register was modified")
	}
	// Direct Set bypasses protection (device-internal update path).
	rf.Set(0x3D, 0x69)
	if rf.Get(0x3D) != 0x69 {
		t.Error("device-internal Set blocked")
	}
}

// TestStatsCountEveryTransaction checks that the traffic counters see
// every read and write, interleaved the way the host driver and the
// BMC share the bus.
func TestStatsCountEveryTransaction(t *testing.T) {
	b := NewBus()
	_ = b.Attach(0x2E, NewRegisterFile())
	for g := 0; g < 8; g++ {
		for i := 0; i < 1000; i++ {
			_ = b.WriteByteData(0x2E, uint8(i), uint8(i))
			if v, err := b.ReadByteData(0x2E, uint8(i)); err != nil || v != uint8(i) {
				t.Fatalf("read back reg %#x = %#x, %v; want %#x", uint8(i), v, err, uint8(i))
			}
		}
	}
	st := b.Stats()
	if st.Reads != 8000 || st.Writes != 8000 {
		t.Errorf("stats = %+v, want 8000/8000", st)
	}
}

func BenchmarkReadByteData(b *testing.B) {
	bus := NewBus()
	_ = bus.Attach(0x2E, NewRegisterFile())
	for i := 0; i < b.N; i++ {
		_, _ = bus.ReadByteData(0x2E, 0x25)
	}
}
