// Package hwmon provides a virtual sysfs: an in-memory file tree with
// the read/write semantics of Linux's /sys, plus helpers that lay out
// the hwmon and cpufreq attribute files the paper's in-band tooling
// (lm-sensors, the fan driver, CPUSPEED) consumes.
//
// Every controller in this repository talks to the hardware through
// these file paths — reading "temp1_input" as millidegrees, writing
// "pwm1" as 0..255 — rather than calling simulator methods directly.
// That keeps the control code one string constant away from running
// against the real /sys on a Linux host, which is the portability
// property the paper claims for its framework.
package hwmon

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
)

// Error values mirroring the errno a real sysfs access would produce.
var (
	ErrNotExist   = errors.New("hwmon: no such file or directory")
	ErrIsDir      = errors.New("hwmon: is a directory")
	ErrPermission = errors.New("hwmon: permission denied")
	ErrInvalid    = errors.New("hwmon: invalid argument")
)

// File is one sysfs attribute. Reads return the full content (sysfs
// attributes are read whole); writes replace it.
type File interface {
	Read() (string, error)
	Write(s string) error
}

// FuncFile adapts read/write closures to File. A nil ReadFn makes the
// file write-only; a nil WriteFn makes it read-only (EACCES on write),
// matching sysfs attribute permission bits.
type FuncFile struct {
	ReadFn  func() (string, error)
	WriteFn func(string) error
}

// Read implements File.
func (f FuncFile) Read() (string, error) {
	if f.ReadFn == nil {
		return "", ErrPermission
	}
	return f.ReadFn()
}

// Write implements File.
func (f FuncFile) Write(s string) error {
	if f.WriteFn == nil {
		return ErrPermission
	}
	return f.WriteFn(s)
}

// IntFuncFile adapts integer-producing closures (which may fail, e.g.
// on a sensor conversion error) to File. It implements IntReader, so
// ReadInt on such an attribute skips the decimal round-trip — the
// fast path for the control plane's per-sample temp_input reads.
type IntFuncFile struct {
	ReadFn  func() (int64, error)
	WriteFn func(int64) error
}

// Read implements File.
func (f IntFuncFile) Read() (string, error) {
	if f.ReadFn == nil {
		return "", ErrPermission
	}
	v, err := f.ReadFn()
	if err != nil {
		return "", err
	}
	//thermlint:allow hotalloc -- string Read is the sysfs text slow path; hot samplers use ReadInt
	return strconv.FormatInt(v, 10) + "\n", nil
}

// ReadInt implements IntReader.
func (f IntFuncFile) ReadInt() (int64, error) {
	if f.ReadFn == nil {
		return 0, ErrPermission
	}
	return f.ReadFn()
}

// WriteInt implements IntWriter, skipping the decimal round-trip.
func (f IntFuncFile) WriteInt(v int64) error {
	if f.WriteFn == nil {
		return ErrPermission
	}
	return f.WriteFn(v)
}

// Write implements File.
func (f IntFuncFile) Write(s string) error {
	if f.WriteFn == nil {
		return ErrPermission
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return fmt.Errorf("%w: %q", ErrInvalid, s)
	}
	return f.WriteFn(v)
}

// StaticFile is a read-only constant attribute (e.g. a "name" file).
type StaticFile string

// Read implements File.
func (s StaticFile) Read() (string, error) { return string(s), nil }

// Write implements File.
func (StaticFile) Write(string) error { return ErrPermission }

// IntFile exposes an integer through get/set closures, formatting and
// parsing in the newline-terminated decimal form sysfs uses. Min and
// Max bound accepted writes (both zero means unbounded).
type IntFile struct {
	Get      func() int64
	Set      func(int64) error
	Min, Max int64
}

// Read implements File.
func (f IntFile) Read() (string, error) {
	if f.Get == nil {
		return "", ErrPermission
	}
	//thermlint:allow hotalloc -- string Read is the sysfs text slow path; hot samplers use ReadInt
	return strconv.FormatInt(f.Get(), 10) + "\n", nil
}

// ReadInt implements IntReader, skipping the decimal round-trip.
func (f IntFile) ReadInt() (int64, error) {
	if f.Get == nil {
		return 0, ErrPermission
	}
	return f.Get(), nil
}

// Write implements File.
func (f IntFile) Write(s string) error {
	if f.Set == nil {
		return ErrPermission
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return fmt.Errorf("%w: %q", ErrInvalid, s)
	}
	if f.Min != 0 || f.Max != 0 {
		if v < f.Min || v > f.Max {
			return fmt.Errorf("%w: %d outside [%d, %d]", ErrInvalid, v, f.Min, f.Max)
		}
	}
	return f.Set(v)
}

// WriteInt implements IntWriter, enforcing the same bounds as Write
// without the decimal round-trip.
func (f IntFile) WriteInt(v int64) error {
	if f.Set == nil {
		return ErrPermission
	}
	if f.Min != 0 || f.Max != 0 {
		if v < f.Min || v > f.Max {
			return fmt.Errorf("%w: %d outside [%d, %d]", ErrInvalid, v, f.Min, f.Max)
		}
	}
	return f.Set(v)
}

// FS is the virtual sysfs tree. It is owned by the stepping goroutine;
// not safe for concurrent use.
type FS struct {
	files map[string]File // cleaned absolute path → attribute
	dirs  map[string]bool // cleaned absolute path → exists
}

// NewFS returns an empty tree containing only "/".
func NewFS() *FS {
	return &FS{
		files: make(map[string]File),
		dirs:  map[string]bool{"/": true},
	}
}

func clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// Register installs an attribute file at p, creating parent directories.
// Registering over an existing file replaces it.
func (fs *FS) Register(p string, f File) {
	p = clean(p)
	for d := path.Dir(p); ; d = path.Dir(d) {
		fs.dirs[d] = true
		if d == "/" {
			break
		}
	}
	fs.files[p] = f
}

// Unregister removes the attribute at p, if present. Empty parent
// directories are kept; sysfs directories outlive their attributes.
func (fs *FS) Unregister(p string) {
	p = clean(p)
	delete(fs.files, p)
}

// ReadFile returns the content of the attribute at p.
func (fs *FS) ReadFile(p string) (string, error) {
	p = clean(p)
	f, ok := fs.files[p]
	isDir := fs.dirs[p]
	if !ok {
		if isDir {
			return "", fmt.Errorf("%w: %s", ErrIsDir, p)
		}
		return "", fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return f.Read()
}

// WriteFile writes s to the attribute at p.
func (fs *FS) WriteFile(p, s string) error {
	p = clean(p)
	f, ok := fs.files[p]
	isDir := fs.dirs[p]
	if !ok {
		if isDir {
			return fmt.Errorf("%w: %s", ErrIsDir, p)
		}
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return f.Write(s)
}

// IntReader is implemented by attributes whose value is natively an
// integer. ReadInt uses it to skip the format-then-parse string
// round-trip on the control plane's hottest read (the sample path
// hits temp_input every period for every binding).
type IntReader interface {
	ReadInt() (int64, error)
}

// ReadInt reads the attribute at p as a decimal integer.
func (fs *FS) ReadInt(p string) (int64, error) {
	p = clean(p)
	f, ok := fs.files[p]
	isDir := fs.dirs[p]
	if !ok {
		if isDir {
			return 0, fmt.Errorf("%w: %s", ErrIsDir, p)
		}
		return 0, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if ir, ok := f.(IntReader); ok {
		return ir.ReadInt()
	}
	s, err := f.Read()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s contains %q", ErrInvalid, p, s)
	}
	return v, nil
}

// IntWriter is the write-side twin of IntReader: attributes whose
// value is natively an integer accept it without the format-then-parse
// decimal round-trip. WriteInt uses it on the actuator write path —
// duty and frequency writes land here on every decision.
type IntWriter interface {
	WriteInt(int64) error
}

// WriteInt writes v to the attribute at p in decimal, taking the
// IntWriter fast path when the attribute supports it.
func (fs *FS) WriteInt(p string, v int64) error {
	f, ok := fs.files[clean(p)]
	if ok {
		if iw, isInt := f.(IntWriter); isInt {
			return iw.WriteInt(v)
		}
	}
	//thermlint:allow hotalloc -- slow path for string attributes only; every integer attribute implements IntWriter
	return fs.WriteFile(p, strconv.FormatInt(v, 10))
}

// List returns the immediate children of directory p (files and
// subdirectories), sorted.
func (fs *FS) List(p string) ([]string, error) {
	p = clean(p)
	if !fs.dirs[p] {
		if _, ok := fs.files[p]; ok {
			return nil, fmt.Errorf("%w: %s is a file", ErrInvalid, p)
		}
		return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	seen := map[string]bool{}
	collect := func(full string) {
		if full == p {
			return
		}
		rel := strings.TrimPrefix(full, p)
		if p != "/" {
			if !strings.HasPrefix(rel, "/") {
				return
			}
			rel = rel[1:]
		} else {
			rel = strings.TrimPrefix(full, "/")
		}
		if rel == "" {
			return
		}
		if i := strings.IndexByte(rel, '/'); i >= 0 {
			rel = rel[:i]
		}
		seen[rel] = true
	}
	for f := range fs.files {
		if strings.HasPrefix(f, p) {
			collect(f)
		}
	}
	for d := range fs.dirs {
		if strings.HasPrefix(d, p) {
			collect(d)
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Exists reports whether p is a registered file or directory.
func (fs *FS) Exists(p string) bool {
	p = clean(p)
	if _, ok := fs.files[p]; ok {
		return true
	}
	return fs.dirs[p]
}
