// Package scenario is the declarative configuration language over the
// component assembly machinery — the Cactus-CCL-style answer to "every
// new simulation is a code change". A scenario file names a set of
// component instances (class + solver knobs), wires their ports,
// selects the driver to run, and optionally declares a parameter sweep
// that expands one spec into a job array.
//
// The front end validates everything a run could trip over *before*
// anything is instantiated: unknown component classes, unknown or
// mistyped parameters, out-of-range knobs, connections between ports
// whose types disagree, dangling required uses ports, and run targets
// with no go port are all rejected at parse time, each diagnostic
// carrying a file:line:col position. The schema the validator checks
// against is pinned to reality by a conformance test that instantiates
// every registered class and compares the declared port lists with the
// ones the components actually register.
//
// Grammar (newline-insensitive, '#' comments to end of line):
//
//	scenario NAME
//	component INSTANCE CLASS [ { KEY = VALUE ... } ]
//	connect USER.USESPORT -> PROVIDER.PROVIDESPORT
//	run INSTANCE
//	sweep {
//	    param INSTANCE.KEY = [ VALUE, VALUE, ... ]
//	    class INSTANCE     = [ CLASS, CLASS, ... ]
//	}
//
// Values are bare words (numbers, identifiers such as h2air-lite) or
// double-quoted strings. Port wiring may be cyclic — the flame's
// CVODE/implicit-integrator pair is mutually connected by design — so
// cycles are legal, not an error. A validated scenario compiles to a
// Compiled assembly that builds onto a cca.Framework through
// SetParameter/Instantiate/Connect. The paper's three applications are
// scenarios too (embedded by package scenarios and loaded by core), so
// there is no other assembly path.
package scenario

import (
	"fmt"
	"strings"
)

// Pos is a source position within a scenario file.
type Pos struct {
	File string
	Line int // 1-based
	Col  int // 1-based, in bytes
}

func (p Pos) String() string { return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col) }

// Diag is one diagnostic: a position and a message. Every rejection the
// package produces is a Diag — there is no positionless error path.
type Diag struct {
	Pos Pos
	Msg string
}

// Error implements error as "file:line:col: message".
func (d Diag) Error() string { return d.Pos.String() + ": " + d.Msg }

// DiagList is the error type returned by Parse and Compile: all
// diagnostics found, in source order.
type DiagList []Diag

// Error joins the diagnostics, one per line.
func (l DiagList) Error() string {
	msgs := make([]string, len(l))
	for i, d := range l {
		msgs[i] = d.Error()
	}
	return strings.Join(msgs, "\n")
}

// Diags unwraps an error produced by this package into its diagnostic
// list (nil for foreign errors).
func Diags(err error) []Diag {
	switch e := err.(type) {
	case DiagList:
		return e
	case Diag:
		return []Diag{e}
	}
	return nil
}

// File is the parsed (not yet validated) form of a scenario.
type File struct {
	Path    string
	Name    string
	NamePos Pos
	Comps   []*ComponentStmt
	Conns   []*ConnectStmt
	Run     *RunStmt
	Sweep   *SweepStmt
}

// ComponentStmt declares one component instance.
type ComponentStmt struct {
	Pos      Pos
	Instance string
	Class    string
	ClassPos Pos
	Params   []*Setting
}

// Setting is one KEY = VALUE entry in a component block.
type Setting struct {
	Pos   Pos
	Key   string
	Value Value
}

// Value is a scalar parameter value; Quoted distinguishes "5" from 5
// only for rendering — the component parameter store is string-typed.
type Value struct {
	Pos    Pos
	Text   string
	Quoted bool
}

// ConnectStmt wires a uses port to a provides port.
type ConnectStmt struct {
	Pos          Pos
	User         string
	UsesPort     string
	Provider     string
	ProvidesPort string
	ProviderPos  Pos
}

// RunStmt names the instance whose go port drives the simulation.
type RunStmt struct {
	Pos      Pos
	Instance string
}

// SweepStmt declares the sweep axes; the cartesian product of the axis
// value lists expands the scenario into a job array.
type SweepStmt struct {
	Pos  Pos
	Axes []*SweepAxis
}

// SweepAxis is one sweep dimension: a parameter axis (param i.k = [..])
// or a component-class axis (class i = [..]).
type SweepAxis struct {
	Pos      Pos
	Kind     string // "param" or "class"
	Instance string
	Key      string // param axes only
	Values   []Value
}
