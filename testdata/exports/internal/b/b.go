// Package b calls into a: by function, by method, through an interface and
// through a stdlib generic's result, and reads one of its vars.
package b

import (
	"sync/atomic"

	"fixture/internal/a"
)

var engine atomic.Pointer[a.Engine]

func use() int {
	var buf a.Buffer
	buf.Reset()
	var u a.Unit = a.Server{}
	_ = u.Serve()
	engine.Load().Rebuild()
	return a.UsedElsewhere() + a.Trace{}.Bytes + a.Limit
}
