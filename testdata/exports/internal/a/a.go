// Package a is the export check's fixture: one function only a test calls,
// one another package calls, and one method only an interface names.
package a

// OnlyTested has no caller outside a's tests: the check flags it.
func OnlyTested() int { return 1 }

// UsedElsewhere is called from package b.
func UsedElsewhere() int { return 2 }

// Unit is an interface a caller would hold a value through.
type Unit interface {
	Serve() error
}

// Server implements Unit; nothing selects Serve by name.
type Server struct{}

// Serve is named by Unit.
func (Server) Serve() error { return nil }
