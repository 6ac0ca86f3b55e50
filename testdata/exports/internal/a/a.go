// Package a is the export check's fixture: functions and methods that
// another package calls, and ones that only share a name with what it calls,
// and a const and a var, one of them read from another package.
package a

// OnlyTested has no caller outside a's tests: the check flags it.
func OnlyTested() int { return 1 }

// UsedElsewhere is called from package b.
func UsedElsewhere() int { return 2 }

// Unit is an interface a caller would hold a value through.
type Unit interface {
	Serve() error
}

// Server implements Unit; b calls Serve only through a Unit.
type Server struct{}

// Serve is named by Unit.
func (Server) Serve() error { return nil }

// Buffer's Reset is called from package b.
type Buffer struct{}

func (*Buffer) Reset() {}

// Histogram's Reset only shares its name with Buffer's: the check flags it.
type Histogram struct{}

func (*Histogram) Reset() {}

// Trace has a field package b selects.
type Trace struct{ Bytes int }

// Table's Bytes only shares its name with Trace's field: the check flags it.
type Table struct{}

func (Table) Bytes() int { return 0 }

// Engine's Rebuild is called from package b on what an atomic.Pointer loads.
type Engine struct{}

func (*Engine) Rebuild() {}

// Unread is a const no other package reads: the check flags it.
const Unread = 3

// Limit is a var package b reads.
var Limit = 4
