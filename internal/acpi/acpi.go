// Package acpi models ACPI processor throttling (T-states) as a third
// thermal-control technique under the paper's unified framework.
//
// The paper's §3.2.2 names "valid sleep states for ACPI-compatible
// system" alongside CPU frequencies and fan speeds as techniques the
// thermal control array unifies. T-states gate the core clock with a
// duty cycle — T0 delivers every cycle, T7 one cycle in eight — cutting
// dynamic power (and throughput) linearly, *without* lowering the
// voltage. That makes throttling strictly less effective per lost
// cycle than DVFS, which is precisely the kind of difference the
// control array's effectiveness ordering captures: a policy can prefer
// DVFS's quadratic savings and keep throttling as the deep reserve.
//
// The host interface mirrors Linux's /proc/acpi/processor/CPUn/
// throttling file: reading shows the state count and the active state,
// writing a state index selects it.
package acpi

import (
	"fmt"
	"strconv"
	"strings"

	"thermctl/internal/cpu"
	"thermctl/internal/hwmon"
)

// NumTStates is the number of throttling states (T0..T7), matching the
// common 8-state ACPI implementation.
const NumTStates = 8

// Frac returns the delivered clock fraction of T-state t: T0 = 100%,
// each deeper state removes one eighth.
func Frac(t int) float64 {
	if t < 0 {
		t = 0
	}
	if t >= NumTStates {
		t = NumTStates - 1
	}
	return 1 - float64(t)/NumTStates
}

// StateForFrac returns the shallowest T-state delivering at most frac.
func StateForFrac(frac float64) int {
	for t := 0; t < NumTStates; t++ {
		if Frac(t) <= frac+1e-9 {
			return t
		}
	}
	return NumTStates - 1
}

// Paths holds the virtual procfs path of one CPU's throttling control.
type Paths struct {
	Throttling string
}

// Mount registers the throttling file for cpu<idx> on the virtual
// filesystem, bound to the given core.
func Mount(fs *hwmon.FS, idx int, c *cpu.CPU) Paths {
	p := Paths{Throttling: fmt.Sprintf("/proc/acpi/processor/CPU%d/throttling", idx)}
	fs.Register(p.Throttling, hwmon.FuncFile{
		ReadFn: func() (string, error) {
			var sb strings.Builder
			active := StateForFrac(c.Throttle())
			fmt.Fprintf(&sb, "state count:             %d\n", NumTStates)
			fmt.Fprintf(&sb, "active state:            T%d\n", active)
			for t := 0; t < NumTStates; t++ {
				marker := "  "
				if t == active {
					marker = " *"
				}
				fmt.Fprintf(&sb, "%sT%d: %02d%%\n", marker, t, int(Frac(t)*100))
			}
			return sb.String(), nil
		},
		WriteFn: func(s string) error {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 0 || v >= NumTStates {
				return fmt.Errorf("%w: throttling state %q", hwmon.ErrInvalid, s)
			}
			c.SetThrottle(Frac(v))
			return nil
		},
	})
	return p
}

// Actuator exposes the T-states to the unified controller: mode 0 is
// T0 (least effective), mode 7 is T7 (most effective).
type Actuator struct {
	throttling *hwmon.Attr
}

// NewActuator returns an actuator driving the mounted throttling file,
// opened once here.
func NewActuator(fs *hwmon.FS, p Paths) *Actuator {
	return &Actuator{throttling: fs.Open(p.Throttling)}
}

// Name implements core.Actuator.
func (a *Actuator) Name() string { return "acpi-throttle" }

// NumModes implements core.Actuator.
func (a *Actuator) NumModes() int { return NumTStates }

// tstateStrings holds the decimal form of every T-state index, built
// once so Apply formats nothing on the actuation path.
var tstateStrings = func() [NumTStates]string {
	var out [NumTStates]string
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}()

// Apply implements core.Actuator.
func (a *Actuator) Apply(m int) error {
	if m < 0 {
		m = 0
	}
	if m >= NumTStates {
		m = NumTStates - 1
	}
	return a.throttling.Write(tstateStrings[m])
}

// Current implements core.Actuator.
func (a *Actuator) Current() (int, error) {
	body, err := a.throttling.Read()
	if err != nil {
		return 0, err
	}
	return ParseActive(body)
}

// ParseActive extracts the active T-state from a throttling file body.
func ParseActive(body string) (int, error) {
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "active state:"); ok {
			rest = strings.TrimSpace(rest)
			if len(rest) >= 2 && rest[0] == 'T' {
				v, err := strconv.Atoi(rest[1:])
				if err == nil && v >= 0 && v < NumTStates {
					return v, nil
				}
			}
			return 0, fmt.Errorf("acpi: malformed active state %q", rest)
		}
	}
	return 0, fmt.Errorf("acpi: no active state in throttling file")
}
