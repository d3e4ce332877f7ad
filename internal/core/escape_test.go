package core_test

import (
	"testing"

	"repro/internal/core"
)

// A caller in another package keeps its scratch and description buffer on
// its own stack: classifying with a fresh scratch allocates only the
// scratch's two per-pattern tables, and the two-stream kernel with two
// fresh scratches only their four.
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
	if n := testing.AllocsPerRun(100, func() {
		var sa, sb core.ClassifyScratch
		var a, b [64]byte
		c.ClassifyPair(append(a[:0], desc...), append(b[:0], "carbon footprint"...), &sa, &sb)
	}); n != 4 {
		t.Fatalf("fresh-scratch ClassifyPair allocates %v times, want 4", n)
	}
}
