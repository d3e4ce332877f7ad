package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/rng"
)

// fuzzDescription builds a hostile random description: keywords from every
// direction, keyword fragments, noise, random casing, messy whitespace and
// occasional unicode — the inputs most likely to split the automaton from
// the strings.Contains reference.
func fuzzDescription(r *rng.Rand) string {
	var vocab []string
	for _, d := range catalog.Directions() {
		vocab = append(vocab, KeywordsFor(d)...)
	}
	noise := []string{"the", "a", "of", "runtime", "system", "data", "works",
		"orch", "estrat", "kern", "notebo", "ener", "gygy", "portabportab"}
	seps := []string{" ", "  ", "\t", "\n", " \t ", "\u00a0", " – "}
	var b strings.Builder
	n := 1 + r.Intn(24)
	for i := 0; i < n; i++ {
		var w string
		switch r.Intn(4) {
		case 0, 1:
			w = vocab[r.Intn(len(vocab))]
		case 2:
			w = noise[r.Intn(len(noise))]
		default: // random-cased keyword
			kw := vocab[r.Intn(len(vocab))]
			var c strings.Builder
			for j := 0; j < len(kw); j++ {
				ch := kw[j]
				if r.Intn(2) == 0 && 'a' <= ch && ch <= 'z' {
					ch -= 'a' - 'A'
				}
				c.WriteByte(ch)
			}
			w = c.String()
		}
		b.WriteString(w)
		b.WriteString(seps[r.Intn(len(seps))])
	}
	return b.String()
}

// checkReference requires every entry to the automaton — the convenience
// API, ClassifyInto and ClassifyBytes — to agree with the strings.Contains
// reference on desc: direction, scores and matched keywords.
func checkReference(t *testing.T, desc string) {
	t.Helper()
	want := classifyDescriptionRef(desc)
	c := Compiled()
	var s ClassifyScratch
	for _, got := range []struct {
		entry string
		res   Classification
	}{
		{"ClassifyDescription", ClassifyDescription(desc)},
		{"ClassifyInto", c.result(c.ClassifyInto(desc, &s), &s)},
		{"ClassifyBytes", c.result(c.ClassifyBytes([]byte(desc), &s), &s)},
	} {
		if !reflect.DeepEqual(got.res, want) {
			t.Fatalf("%s diverges on %q:\n got %+v\nwant %+v", got.entry, desc, got.res, want)
		}
	}
}

// The automaton must agree with the strings.Contains reference on every
// input.
func TestAutomatonMatchesReference(t *testing.T) {
	for _, tool := range catalog.Default().Tools {
		checkReference(t, tool.Description)
	}
	r := rng.New(99)
	for i := 0; i < 5000; i++ {
		checkReference(t, fuzzDescription(r))
	}
}

// FuzzClassifyMatchesReference drives the byte path with arbitrary input.
// Committed seeds under testdata/fuzz cover the whitespace and case folding
// the table compiles in (tabs, CR/LF, whitespace runs inside a multi-word
// keyword, mixed case) and the non-ASCII fallback (NBSP, en-dash).
func FuzzClassifyMatchesReference(f *testing.F) {
	for _, tool := range catalog.Default().Tools {
		f.Add(tool.Description)
	}
	f.Fuzz(checkReference)
}

// The kernel path must agree with the convenience API, for strings and for
// byte slices out of reused buffers.
func TestClassifyIntoMatchesClassifyDescription(t *testing.T) {
	c := Compiled()
	var s ClassifyScratch
	r := rng.New(7)
	var buf []byte
	for i := 0; i < 2000; i++ {
		desc := fuzzDescription(r)
		want := ClassifyDescription(desc)

		w := c.ClassifyInto(desc, &s)
		if got := catalog.Directions()[w]; got != want.Direction {
			t.Fatalf("ClassifyInto(%q) = %s, want %s", desc, got, want.Direction)
		}
		for d, dir := range catalog.Directions() {
			if s.Scores[d] != want.Scores[dir] {
				t.Fatalf("ClassifyInto(%q) score[%s] = %g, want %g", desc, dir, s.Scores[d], want.Scores[dir])
			}
		}
		matched := c.MatchedAppend(nil, w, &s)
		if len(matched) == 0 {
			matched = nil
		}
		if !reflect.DeepEqual(matched, want.Matched) {
			t.Fatalf("ClassifyInto(%q) matched %v, want %v", desc, matched, want.Matched)
		}

		buf = append(buf[:0], desc...)
		if wb := c.ClassifyBytes(buf, &s); wb != w {
			t.Fatalf("ClassifyBytes(%q) = %d, want %d", desc, wb, w)
		}
	}
}

// The compiled automaton is a real DFA over the scheme: a few structural
// sanity checks.
func TestCompiledShape(t *testing.T) {
	c := Compiled()
	total := 0
	for _, d := range catalog.Directions() {
		total += len(KeywordsFor(d))
	}
	if c.Patterns() != total {
		t.Fatalf("compiled %d patterns, want %d", c.Patterns(), total)
	}
	if c.States() < total { // at least one terminal state per distinct keyword
		t.Fatalf("only %d states for %d patterns", c.States(), total)
	}
	if Compiled() != c {
		t.Fatal("Compiled is not a singleton")
	}
}

// The classify kernel must not allocate in steady state — the property the
// million-entry corpus path is built on.
func TestClassifyIntoZeroAllocs(t *testing.T) {
	c := Compiled()
	var s ClassifyScratch
	descs := make([]string, 0, len(catalog.Default().Tools))
	for _, tool := range catalog.Default().Tools {
		descs = append(descs, tool.Description)
	}
	bufs := make([][]byte, len(descs))
	for i, d := range descs {
		bufs[i] = []byte(d)
	}
	c.ClassifyInto(descs[0], &s) // warm the scratch
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		c.ClassifyInto(descs[i%len(descs)], &s)
		i++
	}); allocs != 0 {
		t.Fatalf("ClassifyInto allocates %.1f times per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		c.ClassifyBytes(bufs[i%len(bufs)], &s)
		i++
	}); allocs != 0 {
		t.Fatalf("ClassifyBytes allocates %.1f times per op, want 0", allocs)
	}
}

// The scheme fingerprint keys every corpus shard memo, the stores built on
// them and the committed regress packs; computing it once with the tables
// must not change its value.
func TestSchemeFingerprintPinned(t *testing.T) {
	const want = "763b98816b5556df57848d6133bdac3c6bf52c9930b284533bbdae7a10503822"
	if got := SchemeFingerprint(); got != want {
		t.Fatalf("SchemeFingerprint() = %s, want %s", got, want)
	}
}

// A keyword that breaks the whitespace self-loop's precondition must be
// rejected at build time, by name.
func TestBuildClassifierRejectsWhitespaceKeywords(t *testing.T) {
	for _, kw := range []string{"", " fog", "fog ", "decision  support", "decision\tsupport", "big\ndata"} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprintf("%q", kw)) {
					t.Errorf("keyword %q: panic %q does not name it", kw, msg)
				}
			}()
			buildClassifier(map[catalog.Direction]map[string]float64{
				catalog.Orchestration: {"deploy": 2, kw: 1},
			})
			t.Errorf("keyword %q: scheme accepted", kw)
		}()
	}
}

// A non-ASCII keyword never matches on the folded pass; it matches on the
// normalized rescan, where its bytes have their own classes.
func TestNonASCIIKeyword(t *testing.T) {
	c := buildClassifier(map[catalog.Direction]map[string]float64{
		catalog.EnergyEfficiency: {"café": 2, "green": 1},
	})
	var s ClassifyScratch
	w := c.ClassifyInto("GREEN\tCAFÉ", &s)
	if got := c.MatchedAppend(nil, w, &s); !reflect.DeepEqual(got, []string{"café", "green"}) {
		t.Fatalf("matched %v, want [café green]", got)
	}
	if s.Scores[catalog.EnergyEfficiency.Index()] != 3 {
		t.Fatalf("scores %v, want 3 for energy efficiency", s.Scores)
	}
}

// The class table keeps the build small: one column per distinct keyword
// byte plus three fixed classes, so the build allocates a fraction of what
// a states×256 table would.
func TestBuildClassifierFootprint(t *testing.T) {
	c := Compiled()
	if width := 1 << c.shift; width > 64 {
		t.Fatalf("%d columns, want at most 64", width)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	buildClassifier(directionKeywords)
	runtime.ReadMemStats(&m1)
	if b := m1.TotalAlloc - m0.TotalAlloc; b > 256<<10 {
		t.Fatalf("buildClassifier allocated %d B, want under 256 KiB", b)
	}
}

// Epoch wraparound must not resurrect stale matches.
func TestScratchEpochWrap(t *testing.T) {
	c := Compiled()
	var s ClassifyScratch
	c.ClassifyInto("jupyter notebook kernel", &s)
	s.epoch = ^uint32(0) // force the wrap on the next begin
	w := c.ClassifyInto("energy footprint", &s)
	if got := catalog.Directions()[w]; got != catalog.EnergyEfficiency {
		t.Fatalf("post-wrap classification = %s, want %s", got, catalog.EnergyEfficiency)
	}
	if s.Scores[catalog.InteractiveComputing.Index()] != 0 {
		t.Fatal("stale pre-wrap matches leaked into the new epoch")
	}
}

// KeywordsFor returns sorted copies and covers every direction.
func TestKeywordsFor(t *testing.T) {
	for _, d := range catalog.Directions() {
		kws := KeywordsFor(d)
		if len(kws) == 0 {
			t.Fatalf("no keywords for %s", d)
		}
		for i := 1; i < len(kws); i++ {
			if kws[i-1] >= kws[i] {
				t.Fatalf("KeywordsFor(%s) not strictly sorted: %v", d, kws)
			}
		}
		kws[0] = "mutated"
		if KeywordsFor(d)[0] == "mutated" {
			t.Fatalf("KeywordsFor(%s) returns shared backing storage", d)
		}
	}
}
