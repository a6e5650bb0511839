// Package cpufreq is the in-band DVFS interface: the simulated
// equivalent of the Linux cpufreq subsystem the paper's tDVFS and
// CPUSPEED daemons drive.
//
// A Scaler abstracts "a thing whose frequency can be set"; SimScaler
// implements it over the simulated CPU. Mount lays out the familiar
// sysfs attribute files (scaling_available_frequencies,
// scaling_cur_freq, scaling_setspeed under the userspace governor,
// stats/total_trans) so daemons can also operate purely through the
// virtual /sys tree.
package cpufreq

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"thermctl/internal/cpu"
	"thermctl/internal/hwmon"
)

// Scaler is a frequency-scalable processor.
type Scaler interface {
	// AvailableKHz returns the supported frequencies in kHz, in
	// descending order (cpufreq convention for these parts).
	AvailableKHz() []int64
	// CurrentKHz returns the operating frequency in kHz.
	CurrentKHz() int64
	// SetKHz requests the exact frequency f. It returns an error if f
	// is not in the available table.
	SetKHz(f int64) error
	// Transitions returns the cumulative frequency-change count, as
	// cpufreq's stats/total_trans reports.
	Transitions() uint64
}

// SimScaler implements Scaler over the simulated CPU, and additionally
// tracks per-frequency residency for the stats/time_in_state file.
type SimScaler struct {
	c *cpu.CPU
	// residency is indexed by P-state, parallel to the CPU's table.
	residency []time.Duration
}

// NewSimScaler wraps c.
func NewSimScaler(c *cpu.CPU) *SimScaler {
	return &SimScaler{c: c, residency: make([]time.Duration, len(c.Table()))}
}

// Account credits dt of residency to the current P-state. The node
// calls it once per simulation step.
func (s *SimScaler) Account(dt time.Duration) {
	s.residency[s.c.PState()] += dt
}

// TimeInState returns the per-frequency residency, in cpufreq's unit of
// 10 ms ticks, keyed by kHz. Only states with residency have a key.
func (s *SimScaler) TimeInState() map[int64]int64 {
	out := make(map[int64]int64, len(s.residency))
	for i, p := range s.c.Table() {
		if d := s.residency[i]; d != 0 {
			out[ghzToKHz(p.FreqGHz)] = int64(d / (10 * time.Millisecond))
		}
	}
	return out
}

// AvailableKHz implements Scaler.
//
//thermlint:unit kHz
func (s *SimScaler) AvailableKHz() []int64 {
	tab := s.c.Table()
	out := make([]int64, len(tab))
	for i, p := range tab {
		out[i] = ghzToKHz(p.FreqGHz)
	}
	return out
}

// CurrentKHz implements Scaler.
//
//thermlint:unit kHz
func (s *SimScaler) CurrentKHz() int64 { return ghzToKHz(s.c.FreqGHz()) }

// SetKHz implements Scaler.
//
//thermlint:unit f=kHz
func (s *SimScaler) SetKHz(f int64) error {
	for i, p := range s.c.Table() {
		if ghzToKHz(p.FreqGHz) == f {
			s.c.SetPState(i)
			return nil
		}
	}
	return fmt.Errorf("cpufreq: frequency %d kHz not in table", f)
}

// Transitions implements Scaler.
func (s *SimScaler) Transitions() uint64 { return s.c.Transitions() }

// ghzToKHz converts a model frequency to cpufreq's sysfs unit.
//
//thermlint:unit g=GHz
//thermlint:unit kHz
func ghzToKHz(g float64) int64 { return int64(g*1e6 + 0.5) }

// Paths bundles the sysfs attribute paths of one CPU's cpufreq policy.
type Paths struct {
	Dir              string
	AvailableFreqs   string
	CurFreq          string
	SetSpeed         string
	Governor         string
	TotalTransitions string
	TimeInState      string
}

// Mount lays out the cpufreq policy directory for cpu<idx> on the
// virtual sysfs, bound to the given Scaler. The governor file accepts
// only "userspace" (the governor the paper's daemons require) and
// "ondemand"; scaling_setspeed writes are honored regardless, as our
// daemons own the policy.
func Mount(fs *hwmon.FS, idx int, s Scaler) Paths {
	dir := fmt.Sprintf("/sys/devices/system/cpu/cpu%d/cpufreq", idx)
	p := Paths{
		Dir:              dir,
		AvailableFreqs:   dir + "/scaling_available_frequencies",
		CurFreq:          dir + "/scaling_cur_freq",
		SetSpeed:         dir + "/scaling_setspeed",
		Governor:         dir + "/scaling_governor",
		TotalTransitions: dir + "/stats/total_trans",
		TimeInState:      dir + "/stats/time_in_state",
	}
	fs.Register(p.AvailableFreqs, hwmon.FuncFile{
		ReadFn: func() (string, error) {
			freqs := s.AvailableKHz()
			parts := make([]string, len(freqs))
			for i, f := range freqs {
				parts[i] = strconv.FormatInt(f, 10)
			}
			return strings.Join(parts, " ") + "\n", nil
		},
	})
	fs.Register(p.CurFreq, hwmon.IntFile{Get: s.CurrentKHz})
	fs.Register(p.SetSpeed, hwmon.IntFile{
		Get: s.CurrentKHz,
		Set: func(v int64) error { return s.SetKHz(v) },
	})
	governor := "userspace"
	fs.Register(p.Governor, hwmon.FuncFile{
		ReadFn: func() (string, error) { return governor + "\n", nil },
		WriteFn: func(v string) error {
			v = strings.TrimSpace(v)
			if v != "userspace" && v != "ondemand" {
				return fmt.Errorf("%w: governor %q", hwmon.ErrInvalid, v)
			}
			governor = v
			return nil
		},
	})
	fs.Register(p.TotalTransitions, hwmon.IntFile{
		Get: func() int64 { return int64(s.Transitions()) },
	})
	// stats/time_in_state: "<kHz> <ticks>" per line, descending
	// frequency, when the scaler tracks residency.
	if sim, ok := s.(*SimScaler); ok {
		fs.Register(p.TimeInState, hwmon.FuncFile{
			ReadFn: func() (string, error) {
				var sb strings.Builder
				tis := sim.TimeInState()
				for _, khz := range sim.AvailableKHz() {
					fmt.Fprintf(&sb, "%d %d\n", khz, tis[khz])
				}
				return sb.String(), nil
			},
		})
	}
	return p
}

// ParseAvailable parses a scaling_available_frequencies file body. The
// frequency table of a CPU is static, so hot callers cache the result
// (see core.SysfsFreqPort.AvailableKHz) and this parse runs once per
// port, not per round.
//
//thermlint:unit kHz
func ParseAvailable(body string) ([]int64, error) {
	//thermlint:allow hotalloc -- one-shot parse; hot callers cache the table
	fields := strings.Fields(body)
	//thermlint:allow hotalloc -- one-shot parse; hot callers cache the table
	out := make([]int64, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cpufreq: bad frequency %q", f)
		}
		//thermlint:allow hotalloc -- capacity preallocated to the field count above; never grows
		out = append(out, v)
	}
	//thermlint:allow hotalloc -- one-shot parse; hot callers cache the table
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out, nil
}
