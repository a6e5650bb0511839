package hwmon

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"thermctl/internal/rng"
)

func TestAttrFollowsRegistration(t *testing.T) {
	fs := NewFS()
	a := fs.Open("sys//class/./hwmon/../hwmon/hwmon0/pwm1")
	if _, err := a.ReadInt(); !errors.Is(err, ErrNotExist) || !strings.HasSuffix(err.Error(), " /sys/class/hwmon/hwmon0/pwm1") {
		t.Fatalf("before Register: err = %v, want ErrNotExist on the cleaned path", err)
	}
	// Late register: a handle opened on a missing path finds the file.
	fs.Register("/sys/class/hwmon/hwmon0/pwm1", StaticFile("128\n"))
	if v, err := a.ReadInt(); err != nil || v != 128 {
		t.Fatalf("after Register: ReadInt = %v, %v", v, err)
	}
	// Re-register: the handle follows the replacement, fast path included.
	var duty int64 = 7
	fs.Register("/sys/class/hwmon/hwmon0/pwm1", IntFile{
		Min: 0, Max: 255,
		Get: func() int64 { return duty },
		Set: func(v int64) error { duty = v; return nil },
	})
	if err := a.WriteInt(200); err != nil || duty != 200 {
		t.Fatalf("after re-Register: WriteInt = %v, duty %d", err, duty)
	}
	fs.Unregister("/sys/class/hwmon/hwmon0/pwm1")
	if _, err := a.Read(); !errors.Is(err, ErrNotExist) {
		t.Errorf("after Unregister: err = %v, want ErrNotExist", err)
	}
	if err := fs.Open("/sys/class/hwmon").Write("1"); !errors.Is(err, ErrIsDir) {
		t.Errorf("directory handle: err = %v, want ErrIsDir", err)
	}
}

// propFile is one attribute kind the property test registers. Each
// call builds a fresh instance with its own state, so the by-path tree
// and the handle tree hold equal but separate attributes.
type propFile func() File

var errProp = errors.New("prop: injected read failure")

var propFiles = []propFile{
	func() File { return StaticFile("12\n") },
	func() File { return StaticFile("not a number\n") },
	func() File {
		var v int64 = 3
		return IntFile{Min: -5, Max: 300, Get: func() int64 { return v }, Set: func(x int64) error { v = x; return nil }}
	},
	func() File {
		var v int64 = 1
		return IntFile{Get: func() int64 { return v }} // read-only
	},
	func() File {
		var v, reads int64 = 40000, 0
		return IntFuncFile{
			Min: 0, Max: 100000,
			ReadFn: func() (int64, error) {
				if reads++; reads%3 == 0 {
					return 0, errProp
				}
				return v, nil
			},
			WriteFn: func(x int64) error { v = x; return nil },
		}
	},
	func() File {
		cell := "x\n"
		return FuncFile{
			ReadFn:  func() (string, error) { return cell, nil },
			WriteFn: func(s string) error { cell = s; return nil },
		}
	},
	func() File { return FuncFile{WriteFn: func(string) error { return nil }} }, // write-only
}

// propPaths mixes clean and unclean spellings of the same attributes,
// directories and a path nothing is ever registered at.
var propPaths = []string{
	"/sys/class/hwmon/hwmon0/pwm1",
	"sys//class/./hwmon/../hwmon/hwmon0/pwm1",
	"/sys/class/hwmon/hwmon0/pwm1/",
	"/sys/class/hwmon/hwmon0/temp1_input",
	"/sys/class/hwmon/hwmon0",
	"/sys/class/hwmon",
	"/",
	"/proc/stat",
	"proc/./stat",
	"/nope",
}

var propWrites = []string{"0", "42\n", " 250 ", "301", "-6", "99999", "abc", ""}

// sameOutcome fails the test unless two results agree: the same value, the
// same errors.Is class and the same message.
func sameOutcome(t *testing.T, op string, byPath, handle any, ep, eh error) {
	t.Helper()
	if byPath != handle {
		t.Fatalf("%s: by-path %v, handle %v", op, byPath, handle)
	}
	if (ep == nil) != (eh == nil) {
		t.Fatalf("%s: by-path err %v, handle err %v", op, ep, eh)
	}
	if ep == nil {
		return
	}
	for _, class := range []error{ErrNotExist, ErrIsDir, ErrPermission, ErrInvalid, errProp} {
		if errors.Is(ep, class) != errors.Is(eh, class) {
			t.Fatalf("%s: by-path err %v, handle err %v differ on %v", op, ep, eh, class)
		}
	}
	if ep.Error() != eh.Error() {
		t.Fatalf("%s: by-path err %q, handle err %q", op, ep, eh)
	}
}

// TestAttrMatchesByPath drives seeded random sequences of Register,
// re-Register, Unregister, Open, read and write operations on two
// trees built by the same history. Tree A is only ever accessed by
// path, tree B only through handles; every handle access must return
// what the by-path call on A returns.
func TestAttrMatchesByPath(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		src := rng.New(seed)
		byPath, handles := NewFS(), NewFS()
		type open struct {
			p string
			a *Attr
		}
		var opened []open
		for step := 0; step < 300; step++ {
			p := propPaths[src.Intn(len(propPaths))]
			op := fmt.Sprintf("seed %d step %d", seed, step)
			switch k := src.Intn(10); {
			case k < 2:
				mk := propFiles[src.Intn(len(propFiles))]
				byPath.Register(p, mk())
				handles.Register(p, mk())
			case k < 3:
				byPath.Unregister(p)
				handles.Unregister(p)
			case k < 4 || len(opened) == 0:
				opened = append(opened, open{p, handles.Open(p)})
			default:
				h := opened[src.Intn(len(opened))]
				w := propWrites[src.Intn(len(propWrites))]
				switch src.Intn(4) {
				case 0:
					sp, ep := byPath.ReadFile(h.p)
					sh, eh := h.a.Read()
					sameOutcome(t, op+" Read "+h.p, sp, sh, ep, eh)
				case 1:
					vp, ep := byPath.ReadInt(h.p)
					vh, eh := h.a.ReadInt()
					sameOutcome(t, op+" ReadInt "+h.p, vp, vh, ep, eh)
				case 2:
					sameOutcome(t, op+" Write "+h.p, nil, nil, byPath.WriteFile(h.p, w), h.a.Write(w))
				case 3:
					v := int64(src.Intn(400)) - 50
					sameOutcome(t, op+" WriteInt "+h.p, nil, nil, byPath.WriteInt(h.p, v), h.a.WriteInt(v))
				}
			}
		}
	}
}

func BenchmarkAttrReadInt(b *testing.B) {
	fs := NewFS()
	fs.Register("/sys/class/hwmon/hwmon0/temp1_input", IntFile{Get: func() int64 { return 51250 }})
	a := fs.Open("/sys/class/hwmon/hwmon0/temp1_input")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = a.ReadInt()
	}
}
