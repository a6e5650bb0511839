package hwmon

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegisterAndRead(t *testing.T) {
	fs := NewFS()
	fs.Register("/sys/class/hwmon/hwmon0/name", StaticFile("adt7467\n"))
	got, err := fs.ReadFile("/sys/class/hwmon/hwmon0/name")
	if err != nil {
		t.Fatal(err)
	}
	if got != "adt7467\n" {
		t.Errorf("read %q", got)
	}
}

func TestReadMissingFile(t *testing.T) {
	fs := NewFS()
	if _, err := fs.ReadFile("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("err = %v, want ErrNotExist", err)
	}
	if err := fs.WriteFile("/nope", "x"); !errors.Is(err, ErrNotExist) {
		t.Errorf("write err = %v, want ErrNotExist", err)
	}
}

func TestReadDirectoryFails(t *testing.T) {
	fs := NewFS()
	fs.Register("/a/b/file", StaticFile("x"))
	if _, err := fs.ReadFile("/a/b"); !errors.Is(err, ErrIsDir) {
		t.Errorf("reading a directory: err = %v, want ErrIsDir", err)
	}
}

func TestStaticFileReadOnly(t *testing.T) {
	fs := NewFS()
	fs.Register("/f", StaticFile("v"))
	if err := fs.WriteFile("/f", "w"); !errors.Is(err, ErrPermission) {
		t.Errorf("err = %v, want ErrPermission", err)
	}
}

func TestIntFileRoundTrip(t *testing.T) {
	var stored int64 = 42
	fs := NewFS()
	fs.Register("/v", IntFile{
		Get: func() int64 { return stored },
		Set: func(v int64) error { stored = v; return nil },
	})
	if v, err := fs.ReadInt("/v"); err != nil || v != 42 {
		t.Fatalf("ReadInt = %v, %v", v, err)
	}
	if err := fs.WriteInt("/v", 77); err != nil {
		t.Fatal(err)
	}
	if stored != 77 {
		t.Errorf("stored = %d, want 77", stored)
	}
	// Whitespace and newline tolerated like sysfs.
	if err := fs.WriteFile("/v", " 12\n"); err != nil {
		t.Fatal(err)
	}
	if stored != 12 {
		t.Errorf("stored = %d, want 12", stored)
	}
}

func TestIntFileBounds(t *testing.T) {
	var stored int64
	fs := NewFS()
	fs.Register("/pwm", IntFile{
		Min: 0, Max: 255,
		Get: func() int64 { return stored },
		Set: func(v int64) error { stored = v; return nil },
	})
	if err := fs.WriteInt("/pwm", 300); !errors.Is(err, ErrInvalid) {
		t.Errorf("out-of-range write err = %v, want ErrInvalid", err)
	}
	if err := fs.WriteInt("/pwm", -1); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative write err = %v, want ErrInvalid", err)
	}
	if err := fs.WriteInt("/pwm", 255); err != nil {
		t.Errorf("boundary write failed: %v", err)
	}
}

func TestIntFileGarbage(t *testing.T) {
	fs := NewFS()
	fs.Register("/v", IntFile{Get: func() int64 { return 0 }, Set: func(int64) error { return nil }})
	if err := fs.WriteFile("/v", "not-a-number"); !errors.Is(err, ErrInvalid) {
		t.Errorf("garbage write err = %v, want ErrInvalid", err)
	}
}

func TestFuncFilePermissions(t *testing.T) {
	fs := NewFS()
	fs.Register("/ro", FuncFile{ReadFn: func() (string, error) { return "x", nil }})
	fs.Register("/wo", FuncFile{WriteFn: func(string) error { return nil }})
	if err := fs.WriteFile("/ro", "y"); !errors.Is(err, ErrPermission) {
		t.Error("write to read-only FuncFile succeeded")
	}
	if _, err := fs.ReadFile("/wo"); !errors.Is(err, ErrPermission) {
		t.Error("read of write-only FuncFile succeeded")
	}
}

func TestListChildren(t *testing.T) {
	fs := NewFS()
	fs.Register("/sys/class/hwmon/hwmon0/name", StaticFile("a"))
	fs.Register("/sys/class/hwmon/hwmon0/temp1_input", StaticFile("b"))
	fs.Register("/sys/class/hwmon/hwmon1/name", StaticFile("c"))
	got, err := fs.List("/sys/class/hwmon")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"hwmon0", "hwmon1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("List = %v, want %v", got, want)
	}
	got, err = fs.List("/sys/class/hwmon/hwmon0")
	if err != nil {
		t.Fatal(err)
	}
	want = []string{"name", "temp1_input"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("List = %v, want %v", got, want)
	}
}

func TestListRoot(t *testing.T) {
	fs := NewFS()
	fs.Register("/sys/x", StaticFile("a"))
	fs.Register("/proc/y", StaticFile("b"))
	got, err := fs.List("/")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"proc", "sys"}) {
		t.Errorf("List(/) = %v", got)
	}
}

func TestListMissingAndFile(t *testing.T) {
	fs := NewFS()
	fs.Register("/a/f", StaticFile("x"))
	if _, err := fs.List("/zzz"); !errors.Is(err, ErrNotExist) {
		t.Errorf("List missing: %v", err)
	}
	if _, err := fs.List("/a/f"); !errors.Is(err, ErrInvalid) {
		t.Errorf("List of a file: %v", err)
	}
}

func TestListDoesNotLeakSiblingPrefix(t *testing.T) {
	fs := NewFS()
	fs.Register("/sys/ab/x", StaticFile("1"))
	fs.Register("/sys/abc/y", StaticFile("2"))
	got, err := fs.List("/sys/ab")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "x" {
		t.Errorf("List(/sys/ab) = %v, want [x] (abc must not leak in)", got)
	}
}

func TestUnregister(t *testing.T) {
	fs := NewFS()
	fs.Register("/a/f", StaticFile("x"))
	fs.Unregister("/a/f")
	if _, err := fs.ReadFile("/a/f"); !errors.Is(err, ErrNotExist) {
		t.Error("unregistered file still readable")
	}
	if !fs.Exists("/a") {
		t.Error("directory removed with its last file")
	}
}

func TestPathCleaning(t *testing.T) {
	fs := NewFS()
	fs.Register("sys//class/../class/hwmon/f", StaticFile("x"))
	if _, err := fs.ReadFile("/sys/class/hwmon/f"); err != nil {
		t.Errorf("cleaned path not found: %v", err)
	}
	if _, err := fs.ReadFile("/sys/class/hwmon/../hwmon/f"); err != nil {
		t.Errorf("read with dirty path failed: %v", err)
	}
}

func TestExists(t *testing.T) {
	fs := NewFS()
	fs.Register("/a/b/c", StaticFile("x"))
	for _, p := range []string{"/", "/a", "/a/b", "/a/b/c"} {
		if !fs.Exists(p) {
			t.Errorf("Exists(%q) = false", p)
		}
	}
	if fs.Exists("/a/b/c/d") {
		t.Error("Exists of nonexistent path = true")
	}
}

func TestRoundTripProperty(t *testing.T) {
	fs := NewFS()
	var cell string
	fs.Register("/cell", FuncFile{
		ReadFn:  func() (string, error) { return cell, nil },
		WriteFn: func(s string) error { cell = s; return nil },
	})
	if err := quick.Check(func(s string) bool {
		if strings.ContainsRune(s, 0) {
			return true // sysfs attributes are text; skip NULs
		}
		if err := fs.WriteFile("/cell", s); err != nil {
			return false
		}
		got, err := fs.ReadFile("/cell")
		return err == nil && got == s
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestRegisterInterleavedWithReads mixes registration with reads and
// listings: each read sees the attribute, and each listing sees every
// file registered so far.
func TestRegisterInterleavedWithReads(t *testing.T) {
	fs := NewFS()
	var v int64 = 7
	fs.Register("/v", IntFile{Get: func() int64 { return v }, Set: func(x int64) error { v = x; return nil }})
	for i := 0; i < 500; i++ {
		fs.Register(fmt.Sprintf("/g/%d", i), StaticFile("x"))
		if got, err := fs.ReadFile("/v"); err != nil || got != "7\n" {
			t.Fatalf("ReadFile(/v) = %q, %v", got, err)
		}
		names, err := fs.List("/g")
		if err != nil || len(names) != i+1 {
			t.Fatalf("List(/g) after %d registrations = %d names, %v", i+1, len(names), err)
		}
	}
}

func BenchmarkReadFile(b *testing.B) {
	fs := NewFS()
	fs.Register("/sys/class/hwmon/hwmon0/temp1_input", IntFile{Get: func() int64 { return 51250 }})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = fs.ReadInt("/sys/class/hwmon/hwmon0/temp1_input")
	}
}

func TestIntFuncFileRoundTrip(t *testing.T) {
	var stored int64 = 38500
	var fail error
	fs := NewFS()
	fs.Register("/t", IntFuncFile{
		ReadFn:  func() (int64, error) { return stored, fail },
		WriteFn: func(v int64) error { stored = v; return nil },
	})
	// The string view keeps the sysfs newline-terminated decimal form.
	if s, err := fs.ReadFile("/t"); err != nil || s != "38500\n" {
		t.Fatalf("ReadFile = %q, %v", s, err)
	}
	// ReadInt takes the IntReader fast path: same value, no round-trip.
	if v, err := fs.ReadInt("/t"); err != nil || v != 38500 {
		t.Fatalf("ReadInt = %v, %v", v, err)
	}
	if err := fs.WriteFile("/t", " 40000\n"); err != nil {
		t.Fatal(err)
	}
	if stored != 40000 {
		t.Errorf("stored = %d, want 40000", stored)
	}
	if err := fs.WriteFile("/t", "warm"); !errors.Is(err, ErrInvalid) {
		t.Errorf("garbage write: err = %v, want ErrInvalid", err)
	}
	// A failing closure (sensor dropout) surfaces on both read paths.
	fail = errors.New("conversion failed")
	if _, err := fs.ReadFile("/t"); !errors.Is(err, fail) {
		t.Errorf("ReadFile during fault: err = %v, want %v", err, fail)
	}
	if _, err := fs.ReadInt("/t"); !errors.Is(err, fail) {
		t.Errorf("ReadInt during fault: err = %v, want %v", err, fail)
	}
}

func TestIntFuncFilePermissions(t *testing.T) {
	fs := NewFS()
	fs.Register("/ro", IntFuncFile{ReadFn: func() (int64, error) { return 1, nil }})
	fs.Register("/wo", IntFuncFile{WriteFn: func(int64) error { return nil }})
	if err := fs.WriteInt("/ro", 2); !errors.Is(err, ErrPermission) {
		t.Errorf("write to read-only: err = %v, want ErrPermission", err)
	}
	if _, err := fs.ReadFile("/wo"); !errors.Is(err, ErrPermission) {
		t.Errorf("ReadFile of write-only: err = %v, want ErrPermission", err)
	}
	if _, err := fs.ReadInt("/wo"); !errors.Is(err, ErrPermission) {
		t.Errorf("ReadInt of write-only: err = %v, want ErrPermission", err)
	}
}

func TestReadIntFallbackParsesStrings(t *testing.T) {
	// Attributes without the IntReader fast path still parse: the
	// string form with trailing newline, and garbage still errors.
	fs := NewFS()
	fs.Register("/s", StaticFile("123\n"))
	if v, err := fs.ReadInt("/s"); err != nil || v != 123 {
		t.Fatalf("ReadInt = %v, %v", v, err)
	}
	fs.Register("/g", StaticFile("not-a-number\n"))
	if _, err := fs.ReadInt("/g"); !errors.Is(err, ErrInvalid) {
		t.Errorf("garbage: err = %v, want ErrInvalid", err)
	}
	if _, err := fs.ReadInt("/missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing: err = %v, want ErrNotExist", err)
	}
	if _, err := fs.ReadInt("/"); !errors.Is(err, ErrIsDir) {
		t.Errorf("directory: err = %v, want ErrIsDir", err)
	}
}
