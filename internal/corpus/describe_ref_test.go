package corpus

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rng"
)

// refVocab is the per-direction sorted keyword lists, built straight from
// the scheme so the reference shares no table with the generator.
var refVocab = func() (v [5][]string) {
	for i, d := range catalog.Directions() {
		v[i] = core.KeywordsFor(d)
	}
	return v
}()

// describeRef is the generator's entry recipe drawn through Intn on every
// range: the definition Describe's precomputed bounds must reproduce byte
// for byte.
func describeRef(g *Generator, i int, buf []byte) ([]byte, int) {
	r := rng.Seeded(par.SplitSeed(g.seed, i))
	dir := g.direction(&r)
	kw := g.spec.Keywords
	noise := g.spec.Noise
	first := true
	for kw+noise > 0 {
		if !first {
			buf = append(buf, ' ')
		}
		first = false
		if r.Intn(kw+noise) < kw {
			// Plant a keyword: usually from the true direction, sometimes
			// (Overlap) from a foreign one.
			d := dir
			if g.spec.Overlap > 0 && r.Float64() < g.spec.Overlap {
				d = (dir + 1 + r.Intn(4)) % 5
			}
			words := refVocab[d]
			buf = append(buf, words[r.Intn(len(words))]...)
			kw--
		} else {
			buf = append(buf, fillerVocab[r.Intn(len(fillerVocab))]...)
			noise--
		}
	}
	return buf, dir
}

// refSpecs covers the corners of the spec space: Overlap 0 and 1, no
// keywords, no noise, a skewed mix, token counts past the precomputed
// bounds, and the whole knob range the mutate-corpus scenario op draws
// from (Overlap in [0, 0.4), Noise 0..24, Keywords 1..5).
func refSpecs() []Spec {
	specs := []Spec{
		DefaultSpec(0),
		{Overlap: 0, Noise: 12, Keywords: 3},
		{Overlap: 1, Noise: 12, Keywords: 3},
		{Overlap: 0.3, Noise: 12, Keywords: 0},
		{Overlap: 0.3, Noise: 0, Keywords: 4},
		{Overlap: 0.2, Noise: 0, Keywords: 0},
		{Mix: [5]float64{0, 9, 0, 0.5, 0.01}, Overlap: 0.15, Noise: 12, Keywords: 3},
		{Overlap: 0.15, Noise: 90, Keywords: 7},
		{Overlap: 0.5, Noise: maxTokenBound - 1, Keywords: 1},
		{Overlap: 0.5, Noise: maxTokenBound, Keywords: 0},
	}
	r := rng.New(5)
	for noise := 0; noise <= 24; noise++ {
		for kw := 1; kw <= 5; kw++ {
			specs = append(specs, Spec{Overlap: 0.4 * r.Float64(), Noise: noise, Keywords: kw})
		}
	}
	return specs
}

// Describe draws through precomputed bounds; it must write the same bytes
// and report the same direction as the Intn recipe for every (spec, seed,
// entry).
func TestDescribeMatchesReference(t *testing.T) {
	specs := refSpecs()
	seeds := []int64{0, 1, -7, 1 << 40}
	perSpec := 100_000/(len(specs)*len(seeds)) + 1
	var got, want []byte
	checked := 0
	for _, spec := range specs {
		for _, seed := range seeds {
			g := NewGenerator(spec, seed)
			for i := 0; i < perSpec; i++ {
				var gd, wd int
				got, gd = g.Describe(i, got[:0])
				want, wd = describeRef(g, i, want[:0])
				if !bytes.Equal(got, want) || gd != wd {
					t.Fatalf("spec %+v seed %d entry %d: Describe %q/%d, reference %q/%d",
						spec, seed, i, got, gd, want, wd)
				}
				checked++
			}
		}
	}
	if checked < 100_000 {
		t.Fatalf("checked %d triples, want at least 100000", checked)
	}
}

// NewGenerator accepts every spec, including degenerate ones — negative
// counts, an all-zero, negative or NaN mix, Overlap outside [0, 1] — and
// Describe still follows the reference recipe on each.
func TestNewGeneratorAcceptsEverySpec(t *testing.T) {
	specs := []Spec{
		{},
		{N: -1, Noise: -3, Keywords: 5},
		{Noise: 4, Keywords: -2},
		{Noise: -4, Keywords: -2},
		{Mix: [5]float64{-1, -1, -1, -1, -1}, Noise: 3, Keywords: 2},
		{Mix: [5]float64{math.NaN(), 1, 1, 1, 1}, Noise: 3, Keywords: 2},
		{Mix: [5]float64{math.Inf(1), 1, 0, 0, 0}, Noise: 3, Keywords: 2},
		{Overlap: -0.5, Noise: 3, Keywords: 2},
		{Overlap: 7, Noise: 3, Keywords: 2},
		{Overlap: math.NaN(), Noise: 3, Keywords: 2},
		{Noise: 300, Keywords: 300},
	}
	for _, spec := range specs {
		g := NewGenerator(spec, 3)
		for i := 0; i < 50; i++ {
			got, gd := g.Describe(i, nil)
			want, wd := describeRef(g, i, nil)
			if !bytes.Equal(got, want) || gd != wd {
				t.Fatalf("spec %+v entry %d: Describe %q/%d, reference %q/%d", spec, i, got, gd, want, wd)
			}
		}
	}
}
