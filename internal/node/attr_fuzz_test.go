package node

import (
	"errors"
	"fmt"
	"path"
	"testing"

	"thermctl/internal/acpi"
	"thermctl/internal/hwmon"
	"thermctl/internal/i2c"
)

// attrFiles returns every attribute file under dir, depth first.
func attrFiles(t *testing.T, fs *hwmon.FS, dir string) []string {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		p := path.Join(dir, name)
		if _, err := fs.List(p); err == nil {
			out = append(out, attrFiles(t, fs, p)...)
			continue
		}
		out = append(out, p)
	}
	return out
}

// intBounds are the documented ranges of the node's writable integer
// attributes, keyed by file name; scaling_setspeed's range is the
// frequency table, filled in per node.
var intBounds = map[string][2]int64{
	"temp1_max":   {-128000, 127000},
	"pwm1_enable": {hwmon.PWMEnableManual, hwmon.PWMEnableAuto},
	"pwm1":        {0, 255},
	"max_state":   {0, 3},
}

// readBack reads an attribute after a successful write and checks the
// value lies inside the attribute's bounds.
func readBack(n *Node, p string) (string, error) {
	base := path.Base(p)
	switch base {
	case "scaling_governor":
		s, err := n.FS.ReadFile(p)
		if err == nil && s != "userspace\n" && s != "ondemand\n" {
			err = fmt.Errorf("governor %q", s)
		}
		return s, err
	case "throttling":
		s, err := n.FS.ReadFile(p)
		if err != nil {
			return "", err
		}
		_, err = acpi.ParseActive(s) // rejects a state outside T0..T7
		return s, err
	}
	b, ok := intBounds[base]
	if base == "scaling_setspeed" {
		freqs := n.Scaler.AvailableKHz()
		b, ok = [2]int64{freqs[len(freqs)-1], freqs[0]}, true
	}
	if !ok {
		return "", fmt.Errorf("writable attribute %s has no documented bounds", p)
	}
	v, err := n.FS.ReadInt(p)
	if err == nil && (v < b[0] || v > b[1]) {
		err = fmt.Errorf("read back %d outside [%d, %d]", v, b[0], b[1])
	}
	return fmt.Sprint(v), err
}

// errClass names the sentinel an attribute error wraps.
func errClass(err error) string {
	if err == nil {
		return "nil"
	}
	for _, c := range []error{hwmon.ErrNotExist, hwmon.ErrIsDir, hwmon.ErrPermission, hwmon.ErrInvalid, i2c.ErrNACK, i2c.ErrBusFault} {
		if errors.Is(err, c) {
			return c.Error()
		}
	}
	return "other"
}

// FuzzAttrWrite writes arbitrary text and integers to every attribute a
// node mounts, on one node by path and on an identical node through an
// open handle. Neither may panic, both must fail or succeed alike, and a
// successful write must read back inside the attribute's bounds. Two
// passes let writes that depend on another attribute (pwm1 needs
// pwm1_enable = 1, which sorts after it) see that attribute written.
func FuzzAttrWrite(f *testing.F) {
	for _, seed := range []struct {
		s string
		v int64
	}{
		{"1", hwmon.PWMEnableManual},
		{"2\n", hwmon.PWMEnableAuto},
		{"128", 255},
		{"0", 0},
		{"70000", -128000},
		{"127000", 127000},
		{"2400000", 1600000},
		{"userspace", 3},
		{"ondemand\n", 7},
		{"-1", -1},
		{"256", 1 << 62},
		{" 4 ", -1 << 63},
		{"warm", 2000000},
	} {
		f.Add(seed.s, seed.v)
	}
	f.Fuzz(func(t *testing.T, s string, v int64) {
		byPath, err := New(DefaultConfig("fuzz", 3))
		if err != nil {
			t.Fatal(err)
		}
		handles, err := New(DefaultConfig("fuzz", 3))
		if err != nil {
			t.Fatal(err)
		}
		paths := append(attrFiles(t, byPath.FS, "/sys"), attrFiles(t, byPath.FS, "/proc")...)
		attrs := make([]*hwmon.Attr, len(paths))
		for i, p := range paths {
			attrs[i] = handles.FS.Open(p)
		}
		for pass := 0; pass < 2; pass++ {
			for i, p := range paths {
				a := attrs[i]
				for _, op := range []string{"Write", "WriteInt"} {
					var errPath, errHandle error
					if op == "Write" {
						errPath, errHandle = byPath.FS.WriteFile(p, s), a.Write(s)
					} else {
						errPath, errHandle = byPath.FS.WriteInt(p, v), a.WriteInt(v)
					}
					if errClass(errPath) != errClass(errHandle) {
						t.Fatalf("%s %s: by-path err %v, handle err %v", op, p, errPath, errHandle)
					}
					if errPath != nil {
						continue
					}
					gotPath, err := readBack(byPath, p)
					if err != nil {
						t.Fatalf("%s %s (%q, %d): %v", op, p, s, v, err)
					}
					gotHandle, err := readBack(handles, p)
					if err != nil || gotHandle != gotPath {
						t.Fatalf("%s %s: handle node reads back %q, %v; by-path node %q", op, p, gotHandle, err, gotPath)
					}
				}
			}
		}
	})
}
