package cpufreq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"thermctl/internal/cpu"
	"thermctl/internal/hwmon"
)

func newScaler() (*cpu.CPU, *SimScaler) {
	c := cpu.New(cpu.DefaultConfig())
	return c, NewSimScaler(c)
}

func TestAvailableMatchesTable(t *testing.T) {
	_, s := newScaler()
	got := s.AvailableKHz()
	want := []int64{2400000, 2200000, 2000000, 1800000, 1000000}
	if len(got) != len(want) {
		t.Fatalf("AvailableKHz = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("freq[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSetKHz(t *testing.T) {
	c, s := newScaler()
	if err := s.SetKHz(1800000); err != nil {
		t.Fatal(err)
	}
	if c.FreqGHz() != 1.8 {
		t.Errorf("CPU at %v GHz, want 1.8", c.FreqGHz())
	}
	if s.CurrentKHz() != 1800000 {
		t.Errorf("CurrentKHz = %d", s.CurrentKHz())
	}
	if err := s.SetKHz(1234); err == nil {
		t.Error("SetKHz accepted a frequency not in the table")
	}
	if s.Transitions() != 1 {
		t.Errorf("Transitions = %d, want 1", s.Transitions())
	}
}

func TestMountSysfsLayout(t *testing.T) {
	_, s := newScaler()
	fs := hwmon.NewFS()
	p := Mount(fs, 0, s)

	body, err := fs.ReadFile(p.AvailableFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "2400000") || !strings.Contains(body, "1000000") {
		t.Errorf("scaling_available_frequencies = %q", body)
	}

	cur, err := fs.ReadInt(p.CurFreq)
	if err != nil || cur != 2400000 {
		t.Errorf("scaling_cur_freq = %d, %v", cur, err)
	}

	if err := fs.WriteInt(p.SetSpeed, 2000000); err != nil {
		t.Fatal(err)
	}
	cur, _ = fs.ReadInt(p.CurFreq)
	if cur != 2000000 {
		t.Errorf("after setspeed, cur = %d", cur)
	}

	trans, err := fs.ReadInt(p.TotalTransitions)
	if err != nil || trans != 1 {
		t.Errorf("stats/total_trans = %d, %v", trans, err)
	}
}

func TestMountRejectsBadSetspeed(t *testing.T) {
	_, s := newScaler()
	fs := hwmon.NewFS()
	p := Mount(fs, 0, s)
	if err := fs.WriteInt(p.SetSpeed, 99); err == nil {
		t.Error("setspeed accepted an invalid frequency")
	}
}

func TestGovernorFile(t *testing.T) {
	_, s := newScaler()
	fs := hwmon.NewFS()
	p := Mount(fs, 0, s)
	g, err := fs.ReadFile(p.Governor)
	if err != nil || strings.TrimSpace(g) != "userspace" {
		t.Errorf("governor = %q, %v", g, err)
	}
	if err := fs.WriteFile(p.Governor, "ondemand\n"); err != nil {
		t.Fatal(err)
	}
	g, _ = fs.ReadFile(p.Governor)
	if strings.TrimSpace(g) != "ondemand" {
		t.Errorf("governor after write = %q", g)
	}
	if err := fs.WriteFile(p.Governor, "performance"); err == nil {
		t.Error("unsupported governor accepted")
	}
}

func TestParseAvailable(t *testing.T) {
	got, err := ParseAvailable("1000000 2400000 1800000\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2400000, 1800000, 1000000}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ParseAvailable[%d] = %d, want %d (descending)", i, got[i], want[i])
		}
	}
	if _, err := ParseAvailable("24x"); err == nil {
		t.Error("ParseAvailable accepted garbage")
	}
}

func TestMultipleCPUsSeparatePolicies(t *testing.T) {
	fs := hwmon.NewFS()
	c0, s0 := newScaler()
	c1, s1 := newScaler()
	p0 := Mount(fs, 0, s0)
	p1 := Mount(fs, 1, s1)
	_ = fs.WriteInt(p0.SetSpeed, 1000000)
	if c0.FreqGHz() != 1.0 {
		t.Error("cpu0 did not scale")
	}
	if c1.FreqGHz() != 2.4 {
		t.Error("cpu1 scaled when only cpu0 was written")
	}
	_ = fs.WriteInt(p1.SetSpeed, 1800000)
	if c1.FreqGHz() != 1.8 {
		t.Error("cpu1 did not scale")
	}
}

func TestTimeInStateResidency(t *testing.T) {
	c, s := newScaler()
	fs := hwmon.NewFS()
	p := Mount(fs, 0, s)
	// 3 s at 2.4 GHz, then 1 s at 1.8 GHz.
	for i := 0; i < 12; i++ {
		s.Account(250 * time.Millisecond)
	}
	if !c.SetFreqGHz(1.8) {
		t.Fatal("no 1.8 GHz state")
	}
	for i := 0; i < 4; i++ {
		s.Account(250 * time.Millisecond)
	}
	tis := s.TimeInState()
	if tis[2400000] != 300 { // 3 s = 300 ten-ms ticks
		t.Errorf("residency at 2.4 GHz = %d ticks, want 300", tis[2400000])
	}
	if tis[1800000] != 100 {
		t.Errorf("residency at 1.8 GHz = %d ticks, want 100", tis[1800000])
	}
	body, err := fs.ReadFile(p.TimeInState)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "2400000 300") || !strings.Contains(body, "1800000 100") {
		t.Errorf("time_in_state:\n%s", body)
	}
	// Untouched frequencies appear with zero residency.
	if !strings.Contains(body, "1000000 0") {
		t.Errorf("zero-residency state missing:\n%s", body)
	}
}

func TestTimeInStateRandomWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		c, s := newScaler()
		fs := hwmon.NewFS()
		p := Mount(fs, 0, s)
		freqs := s.AvailableKHz()
		visited := map[int64]bool{}
		var elapsed time.Duration
		// Short walks leave some states unvisited, long ones visit all.
		for steps := r.Intn(40); steps > 0; steps-- {
			if r.Intn(3) == 0 {
				c.SetPState(r.Intn(len(freqs)))
			}
			// Whole 10 ms ticks, so per-state floors sum exactly.
			dt := time.Duration(1+r.Intn(100)) * 10 * time.Millisecond
			s.Account(dt)
			visited[s.CurrentKHz()] = true
			elapsed += dt
		}

		tis := s.TimeInState()
		var sum int64
		for khz, ticks := range tis {
			if !visited[khz] {
				t.Errorf("seed %d: TimeInState has unvisited %d kHz", seed, khz)
			}
			sum += ticks
		}
		for khz := range visited {
			if _, ok := tis[khz]; !ok {
				t.Errorf("seed %d: TimeInState misses visited %d kHz", seed, khz)
			}
		}
		if want := int64(elapsed / (10 * time.Millisecond)); sum != want {
			t.Errorf("seed %d: residency sums to %d ticks, want %d", seed, sum, want)
		}

		body, err := fs.ReadFile(p.TimeInState)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(body), "\n")
		if len(lines) != len(freqs) {
			t.Fatalf("seed %d: time_in_state has %d lines, want %d:\n%s", seed, len(lines), len(freqs), body)
		}
		for i, khz := range freqs {
			if want := fmt.Sprintf("%d %d", khz, tis[khz]); lines[i] != want {
				t.Errorf("seed %d: time_in_state line %d = %q, want %q", seed, i, lines[i], want)
			}
		}
	}
}
