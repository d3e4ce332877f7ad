package core_test

import (
	"testing"

	"repro/internal/core"
)

// A caller in another package keeps its scratch and description buffer on
// its own stack: classifying with a fresh scratch allocates only the
// scratch's two per-pattern tables.
func TestCallerStateStaysOnStack(t *testing.T) {
	c := core.Compiled()
	const desc = "Jupyter notebook kernel"
	if n := testing.AllocsPerRun(100, func() {
		var s core.ClassifyScratch
		var buf [64]byte
		c.ClassifyBytes(append(buf[:0], desc...), &s)
		c.ClassifyInto(desc, &s)
	}); n != 2 {
		t.Fatalf("fresh-scratch classify allocates %v times, want 2", n)
	}
}
