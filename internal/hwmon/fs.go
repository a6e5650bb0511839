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
//
// A real daemon opens such a file once and re-reads the open file
// descriptor every period; FS.Open is that fd analogue. It cleans and
// resolves a path once and returns an *Attr that caches the resolved
// File, with its IntReader/IntWriter fast paths, and the tree's
// registration generation. Register bumps the generation; a handle
// whose generation is stale resolves its path again on the next
// access. A handle therefore returns exactly what the by-path call
// returns at that moment, ENOENT and EISDIR included, while the steady
// state costs no path cleaning and no map lookup. The by-path calls (ReadFile, WriteFile, ReadInt, WriteInt)
// are one-shot handles over the same lookup.
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
// on a sensor conversion error or a NAKed bus transaction) to File. It
// implements IntReader, so ReadInt on such an attribute skips the
// decimal round-trip — the fast path for the control plane's
// per-sample temp_input reads. Min and Max bound accepted writes (both
// zero means unbounded), as for IntFile.
type IntFuncFile struct {
	ReadFn   func() (int64, error)
	WriteFn  func(int64) error
	Min, Max int64
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
	if err := checkRange(v, f.Min, f.Max); err != nil {
		return err
	}
	return f.WriteFn(v)
}

// Write implements File.
func (f IntFuncFile) Write(s string) error {
	if f.WriteFn == nil {
		return ErrPermission
	}
	v, err := parseInt(s)
	if err != nil {
		return err
	}
	return f.WriteInt(v)
}

// StaticFile is a read-only constant attribute (e.g. a "name" file).
type StaticFile string

// Read implements File.
func (s StaticFile) Read() (string, error) { return string(s), nil }

// Write implements File.
func (StaticFile) Write(string) error { return ErrPermission }

// IntFile exposes an integer through get/set closures, formatting and
// parsing in the newline-terminated decimal form sysfs uses. Accepted
// writes lie in [0, Max] (a zero Max means unbounded).
type IntFile struct {
	Get func() int64
	Set func(int64) error
	Max int64
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
	v, err := parseInt(s)
	if err != nil {
		return err
	}
	return f.WriteInt(v)
}

// WriteInt implements IntWriter, enforcing the same bounds as Write
// without the decimal round-trip.
func (f IntFile) WriteInt(v int64) error {
	if f.Set == nil {
		return ErrPermission
	}
	if err := checkRange(v, 0, f.Max); err != nil {
		return err
	}
	return f.Set(v)
}

// parseInt parses a written sysfs value: decimal, surrounding
// whitespace (the trailing newline of `echo`) ignored.
func parseInt(s string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q", ErrInvalid, s)
	}
	return v, nil
}

// checkRange enforces an integer attribute's write bounds; lo and hi
// both zero means unbounded.
func checkRange(v, lo, hi int64) error {
	if (lo != 0 || hi != 0) && (v < lo || v > hi) {
		return fmt.Errorf("%w: %d outside [%d, %d]", ErrInvalid, v, lo, hi)
	}
	return nil
}

// FS is the virtual sysfs tree. It is owned by the stepping goroutine;
// not safe for concurrent use.
type FS struct {
	files map[string]File // cleaned absolute path → attribute
	dirs  map[string]bool // cleaned absolute path → exists
	// gen counts Register calls; an Attr resolved at an
	// older generation resolves its path again before its next access.
	gen uint64
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
	fs.gen++
}

// lookup resolves a cleaned path to its attribute, or to the errno an
// open of it would fail with.
func (fs *FS) lookup(p string) (File, error) {
	f, ok := fs.files[p]
	if !ok {
		if fs.dirs[p] {
			return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
		}
		return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return f, nil
}

// IntReader is implemented by attributes whose value is natively an
// integer. ReadInt uses it to skip the format-then-parse string
// round-trip on the control plane's hottest read (the sample path
// hits temp_input every period for every binding).
type IntReader interface {
	ReadInt() (int64, error)
}

// IntWriter is the write-side twin of IntReader: attributes whose
// value is natively an integer accept it without the format-then-parse
// decimal round-trip. WriteInt uses it on the actuator write path —
// duty and frequency writes land here on every decision.
type IntWriter interface {
	WriteInt(int64) error
}

// Attr is an open attribute, the analogue of a file descriptor a
// daemon keeps on a sysfs file. It holds the cleaned path, the File
// it resolved to (or the error the resolution gave) with the
// IntReader/IntWriter assertions already made, and the generation of
// the tree at resolution. Any access first compares that generation
// with the tree's and resolves the path again if a Register happened
// since, so a handle never outlives a replaced attribute. Like its FS, an Attr belongs to the stepping
// goroutine.
type Attr struct {
	fs   *FS
	path string
	gen  uint64
	f    File
	err  error
	ir   IntReader
	iw   IntWriter
}

// Open returns a handle on the attribute at p. It never fails: a path
// that is missing or a directory yields a handle whose accesses return
// ENOENT or EISDIR until an attribute is registered there.
func (fs *FS) Open(p string) *Attr {
	a := fs.attr(p)
	return &a
}

// attr resolves p into a handle value; the by-path calls use it as a
// one-shot handle on their stack.
func (fs *FS) attr(p string) Attr {
	a := Attr{fs: fs, path: clean(p)}
	a.resolve()
	return a
}

func (a *Attr) resolve() {
	a.gen = a.fs.gen
	a.f, a.err = a.fs.lookup(a.path)
	a.ir, _ = a.f.(IntReader)
	a.iw, _ = a.f.(IntWriter)
}

// file returns the attribute the handle refers to now.
func (a *Attr) file() (File, error) {
	if a.gen != a.fs.gen {
		a.resolve()
	}
	return a.f, a.err
}

// Read returns the attribute's content.
func (a *Attr) Read() (string, error) {
	f, err := a.file()
	if err != nil {
		return "", err
	}
	return f.Read()
}

// Write writes s to the attribute.
func (a *Attr) Write(s string) error {
	f, err := a.file()
	if err != nil {
		return err
	}
	return f.Write(s)
}

// ReadInt reads the attribute as a decimal integer, taking the
// IntReader fast path when the attribute supports it.
func (a *Attr) ReadInt() (int64, error) {
	f, err := a.file()
	if err != nil {
		return 0, err
	}
	if a.ir != nil {
		return a.ir.ReadInt()
	}
	s, err := f.Read()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s contains %q", ErrInvalid, a.path, s)
	}
	return v, nil
}

// WriteInt writes v to the attribute in decimal, taking the IntWriter
// fast path when the attribute supports it.
func (a *Attr) WriteInt(v int64) error {
	f, err := a.file()
	if err != nil {
		return err
	}
	if a.iw != nil {
		return a.iw.WriteInt(v)
	}
	//thermlint:allow hotalloc -- slow path for string attributes only; every integer attribute implements IntWriter
	return f.Write(strconv.FormatInt(v, 10))
}

// ReadFile returns the content of the attribute at p.
//
//thermlint:allow deadcode -- oracle: TestAttrMatchesByPath compares every handle access with the by-path call
func (fs *FS) ReadFile(p string) (string, error) {
	a := fs.attr(p)
	return a.Read()
}

// WriteFile writes s to the attribute at p.
//
//thermlint:allow deadcode -- oracle: TestAttrMatchesByPath compares every handle access with the by-path call
func (fs *FS) WriteFile(p, s string) error {
	a := fs.attr(p)
	return a.Write(s)
}

// ReadInt reads the attribute at p as a decimal integer.
func (fs *FS) ReadInt(p string) (int64, error) {
	a := fs.attr(p)
	return a.ReadInt()
}

// WriteInt writes v to the attribute at p in decimal, taking the
// IntWriter fast path when the attribute supports it.
func (fs *FS) WriteInt(p string, v int64) error {
	a := fs.attr(p)
	return a.WriteInt(v)
}

// List returns the immediate children of directory p (files and
// subdirectories), sorted.
//
//thermlint:allow deadcode -- oracle: the attribute fuzzers enumerate the sysfs tree with it
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
