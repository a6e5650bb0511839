// Package main is the deadcode fixture: main, init and package-level
// variable initializers are its roots.
package main

import "fmt"

// Mode's String runs inside fmt, through fmt.Stringer: a root.
type Mode int

func (m Mode) String() string { return "mode" }

func (m Mode) Next() Mode { return m + 1 } // want `Mode\)\.Next is dead`

// Shape's Area is called through the interface: every implementation
// is live.
type Shape interface{ Area() float64 }

type Square struct{ side float64 }

func (s Square) Area() float64 { return s.side * s.side }

func (s Square) Perimeter() float64 { return 4 * s.side } // want `Square\)\.Perimeter is dead`

// Circle implements Shape too, but no live code names a Circle: the
// interface call in main does not reach its Area.
type Circle struct{}

func (c Circle) Area() float64 { return 3 } // want `Circle\)\.Area is dead`

// Sizer is called through its interface. Only Labeled, which embeds
// Plain, is named by live code; Plain's Size is live as Labeled's
// promoted method.
type Sizer interface{ Size() int }

type Plain struct{}

func (p Plain) Size() int { return 1 }

type Labeled struct {
	Plain
	name string
}

func (l Labeled) Name() string { return l.name }

func measure(s Sizer) int { return s.Size() }

type Counter struct {
	//thermlint:allow deadcode -- hits is read and written: keeps nothing // want `deadcode suppresses no finding`
	hits   int
	label  string  // want `field Counter\.label is never read`
	limit  int     // want `field Counter\.limit is never written except with its zero value`
	spare  float64 // want `field Counter\.spare is dead: never read or written`
	rounds int     // want `field Counter\.rounds is never read`
	total  float64 // want `field Counter\.total is never read`
	Tagged string  `json:"tagged"`
	//thermlint:allow deadcode -- the fixture's kept field
	kept int
}

func (c *Counter) Inc() {
	c.hits++
	c.rounds++
	c.total += 0.5
}

func (c *Counter) Over() bool {
	c.limit = 0
	return c.hits > c.limit
}

func (c *Counter) Reset() { c.hits = 0 } // want `Counter\)\.Reset is dead`

var Exported = 3 // want `exported var Exported is dead`

var Used = 4 //thermlint:allow deadcode -- callback reads it: keeps nothing // want `deadcode suppresses no finding`

const Limit = 5 // want `exported const Limit is dead`

const Cap = 6

// Scale is live only through Scaled, which main reads.
const Scale = 2

const Scaled = Scale * 3

// registry's initializer is a root: callback is live without a call.
var registry = map[string]func() int{"cb": callback}

func callback() int { return Used + Cap }

func init() { initOnly() }

func initOnly() {}

func apply(f func() int) int { return f() }

// byValue is never called by name, only passed as a value.
func byValue() int { return 7 }

//thermlint:allow deadcode -- the fixture's kept oracle
func oracle() int { return oracleHelper() }

// oracleHelper is live through the allowed oracle, so its own
// directive keeps nothing and is reported.
//
//thermlint:allow deadcode -- redundant: oracle keeps it // want `thermlint:allow deadcode suppresses no finding`
func oracleHelper() int { return 8 }

func dead() int { return deadCallee() } // want `dc\.dead is dead`

func deadCallee() int { return 9 } // want `dc\.deadCallee is dead`

func main() {
	c := &Counter{label: "x"}
	inc := c.Inc // a method value
	inc()
	var s Shape = Square{side: 2}
	l := Labeled{name: "l"}
	fmt.Println(c.Over(), s.Area(), Mode(1), apply(byValue), registry["cb"](), Scaled, measure(l), l.Name())
}

// An allow on a type keeps every field.
//
//thermlint:allow deadcode -- the fixture's kept struct
type Kept struct{ a, b int }
