package core

import (
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/rng"
)

// single is what one ClassifyBytes call leaves behind: the winner, the
// scores and the matched keywords of the winner.
type single struct {
	W       int
	Scores  [numDirections]float64
	N       int
	Matched []string
}

func classifyOne(c *Classifier, text []byte, s *ClassifyScratch) single {
	w := c.ClassifyBytes(text, s)
	return single{w, s.Scores, s.Matched(), c.MatchedAppend(nil, w, s)}
}

// checkPair requires ClassifyPair(a, b) to leave exactly what two
// ClassifyBytes calls leave, in both argument orders and on reused
// scratch.
func checkPair(t *testing.T, a, b []byte) {
	t.Helper()
	c := Compiled()
	var s1, s2 ClassifyScratch
	wa, wb := classifyOne(c, a, &s1), classifyOne(c, b, &s2)
	for _, swap := range []bool{false, true} {
		x, y, wx, wy := a, b, wa, wb
		if swap {
			x, y, wx, wy = b, a, wb, wa
		}
		for round := 0; round < 2; round++ {
			gx, gy := c.ClassifyPair(x, y, &s1, &s2)
			got := [2]single{
				{gx, s1.Scores, s1.Matched(), c.MatchedAppend(nil, gx, &s1)},
				{gy, s2.Scores, s2.Matched(), c.MatchedAppend(nil, gy, &s2)},
			}
			if want := [2]single{wx, wy}; !reflect.DeepEqual(got, want) {
				t.Fatalf("ClassifyPair(%q, %q) diverges from ClassifyBytes:\n got %+v\nwant %+v", x, y, got, want)
			}
		}
	}
}

// ClassifyPair is two ClassifyBytes calls: empty texts, unequal lengths,
// keywords ending on the last byte of either text or of the common prefix,
// non-ASCII in one stream or both (in the lockstep part and in the tail),
// catalog descriptions and hostile random ones.
func TestClassifyPairMatchesSingle(t *testing.T) {
	cases := [][2]string{
		{"", ""},
		{"", "jupyter notebook"},
		{"carbon footprint", ""},
		{"jupyter", "energy"},
		{"a jupyter", "energy footprint of big data analytics"},
		{"orchestration and deploy", "kernel"},
		{"big data", "tosca deploy placement on kubernetes federation"},
		{"carbon footprint", "jupyter notebook kernel"},
		{"jupyter notebook kernel", "orchestration – deploy"},
		{"llvm compiler", "énergy carbon footprint"},
		{"short", "a long tail with a keyword at the very end: posix"},
		{"energy power green carbon footprint tail", "gpu\xff"},
		{"Jupyter\tNOTEBOOK\r\n  kernel  ", "  MULTI-CLOUD\n\nfederation\t"},
	}
	for _, tc := range cases {
		checkPair(t, []byte(tc[0]), []byte(tc[1]))
	}
	tools := catalog.Default().Tools
	for i := range tools {
		checkPair(t, []byte(tools[i].Description), []byte(tools[(i+7)%len(tools)].Description))
	}
	r := rng.New(31)
	for i := 0; i < 3000; i++ {
		checkPair(t, []byte(fuzzDescription(r)), []byte(fuzzDescription(r)))
	}
}

// FuzzClassifyPairMatchesSingle drives the lockstep kernel with arbitrary
// pairs. Committed seeds under testdata/fuzz cover empty and unequal
// lengths, a keyword on the last byte, and non-ASCII in either stream.
func FuzzClassifyPairMatchesSingle(f *testing.F) {
	tools := catalog.Default().Tools
	for i := range tools {
		f.Add(tools[i].Description, tools[(i+1)%len(tools)].Description)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		checkPair(t, []byte(a), []byte(b))
	})
}

// With reused scratch the lockstep kernel allocates nothing.
func TestClassifyPairZeroAllocs(t *testing.T) {
	c := Compiled()
	var sa, sb ClassifyScratch
	a := []byte("Jupyter notebook kernel on demand")
	b := []byte("carbon footprint of low-power sensor devices")
	c.ClassifyPair(a, b, &sa, &sb)
	if n := testing.AllocsPerRun(100, func() { c.ClassifyPair(a, b, &sa, &sb) }); n != 0 {
		t.Fatalf("ClassifyPair allocates %v times per op, want 0", n)
	}
}
