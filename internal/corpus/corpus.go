// Package corpus scales the mapping-study engine from paper size (25 tool
// descriptions) to repository-mining size (10^4–10^7 entries): a seeded
// synthetic corpus generator plus a sharded, content-addressed
// classification pipeline over it.
//
// The generator is the workload the ROADMAP's "Big Data management
// direction applied to the paper's own machinery" item asks for:
// parameterized tool-description corpora with a controllable direction mix,
// cross-direction vocabulary overlap, and noise, where entry i is a pure
// function of (seed, i) — shards can generate their slices independently,
// in any order, on any worker count, and always produce the same bytes.
// Classification runs the compiled keyword automaton (core.Compiled) over
// fixed-size corpus shards under par.MapReduceScratch, memoizing each
// shard's aggregate in the content-addressed store: a warm re-run executes
// zero shard bodies, and growing the corpus re-executes only the shards
// whose entry ranges actually changed (classify.go).
package corpus

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rng"
)

// Spec parameterizes a synthetic corpus. The zero Mix means uniform across
// the five directions; weights are relative, not normalized.
type Spec struct {
	// N is the corpus size (number of tool descriptions).
	N int
	// Mix weighs the five research directions in catalog canonical order
	// when drawing each entry's true direction.
	Mix [5]float64
	// Overlap is the probability that a planted keyword is drawn from a
	// direction other than the entry's true one — the knob that makes
	// classification genuinely confusable instead of trivially separable.
	Overlap float64
	// Noise is the number of neutral filler words per entry (filler never
	// matches any keyword, pinned by TestFillerVocabularyIsNeutral).
	Noise int
	// Keywords is the number of planted keywords per entry.
	Keywords int
}

// DefaultSpec is the reference corpus shape: uniform mix, mild overlap,
// descriptions of roughly catalog length.
func DefaultSpec(n int) Spec {
	return Spec{N: n, Overlap: 0.15, Noise: 12, Keywords: 3}
}

// fingerprint renders every behaviour-determining field except N — shard
// memo keys must survive corpus growth (see classify.go).
func (s Spec) fingerprint() string {
	return fmt.Sprintf("mix=%g,%g,%g,%g,%g|ov=%g|noise=%d|kw=%d",
		s.Mix[0], s.Mix[1], s.Mix[2], s.Mix[3], s.Mix[4], s.Overlap, s.Noise, s.Keywords)
}

// fillerVocab is the neutral background vocabulary. Every word — and every
// space-joined sequence of them — is free of classification keywords, so
// noise dilutes the signal without ever forging it.
var fillerVocab = [...]string{
	"the", "quiet", "harbor", "violet", "method", "chapter", "outline",
	"meadow", "copper", "lantern", "summit", "exact", "mirror", "velvet",
	"anchor", "ribbon", "timber", "marble", "saffron", "quartz", "willow",
	"canyon", "ember", "breeze", "cobalt", "meridian", "pellucid", "tundra",
	"vestibule", "zephyr", "gossamer",
}

// maxTokenBound bounds the precomputed remaining-token ranges: entries
// with more planted keywords plus filler words than this draw their
// first tokens through Intn, which returns the same values.
const maxTokenBound = 64

// slotSize is the width of a pre-rendered token.
const slotSize = 32

// slot is one pre-rendered token: the word, its separating space, zero
// padding, and the word-plus-space length in the last byte. Describe copies
// the whole fixed-size slot into spare buffer capacity — a few register
// moves instead of a memmove call — and advances by that length only.
type slot [slotSize]byte

// newSlot renders w into a slot. It panics if w does not fit.
func newSlot(w string) slot {
	var s slot
	if len(w) >= slotSize-1 {
		panic(fmt.Sprintf("corpus: word %q does not fit a %d-byte token slot", w, slotSize))
	}
	copy(s[:], w)
	s[len(w)] = ' '
	s[slotSize-1] = byte(len(w) + 1)
	return s
}

// vocabulary is what Describe draws from, shared read-only by every
// Generator: the per-direction sorted keyword lists in canonical order and
// the filler words, as slots, and the precomputed bounds of every fixed
// range it draws over. The scheme is fixed, so it is built once per
// process.
type vocabulary struct {
	words  [5][]slot
	filler [len(fillerVocab)]slot
	// wordBound[d] is [0, len(words[d])); fillerBound is
	// [0, len(fillerVocab)).
	wordBound   [5]rng.Bound
	fillerBound rng.Bound
	// tokens[k] is [0, k): the draw that picks keyword or filler among the
	// k tokens still to write.
	tokens [maxTokenBound]rng.Bound
}

var sharedVocab = sync.OnceValue(func() *vocabulary {
	v := &vocabulary{fillerBound: rng.NewBound(len(fillerVocab))}
	for i, w := range fillerVocab {
		v.filler[i] = newSlot(w)
	}
	for i, d := range catalog.Directions() {
		for _, w := range core.KeywordsFor(d) {
			v.words[i] = append(v.words[i], newSlot(w))
		}
		v.wordBound[i] = rng.NewBound(len(v.words[i]))
	}
	for k := 1; k < maxTokenBound; k++ {
		v.tokens[k] = rng.NewBound(k)
	}
	return v
})

// Generator produces the entries of one corpus. It is immutable after
// construction and safe for concurrent use: all per-entry state lives in
// the caller's buffers and a stack-local RNG.
type Generator struct {
	spec Spec
	seed int64
	voc  *vocabulary
	// cum is the cumulative (normalized) direction mix.
	cum [5]float64
}

// NewGenerator compiles a generator for the spec and root seed.
func NewGenerator(spec Spec, seed int64) *Generator {
	g := &Generator{spec: spec, seed: seed, voc: sharedVocab()}
	mix := spec.Mix
	total := 0.0
	for _, w := range mix {
		total += w
	}
	if total <= 0 {
		mix = [5]float64{1, 1, 1, 1, 1}
		total = 5
	}
	acc := 0.0
	for i, w := range mix {
		acc += w / total
		g.cum[i] = acc
	}
	g.cum[4] = 1 // guard against accumulated rounding at the top bucket
	return g
}

// Spec returns the generator's corpus parameters.
func (g *Generator) Spec() Spec { return g.spec }

// Seed returns the generator's root seed.
func (g *Generator) Seed() int64 { return g.seed }

// direction draws a true direction from the mix.
func (g *Generator) direction(r *rng.Rand) int {
	u := r.Float64()
	for d := 0; d < 4; d++ {
		if u < g.cum[d] {
			return d
		}
	}
	return 4
}

// Describe appends entry i's description to buf and returns the extended
// buffer plus the entry's true direction (canonical index). Entry i is a
// pure function of (seed, i): the per-entry stream is split from the root
// seed with par.SplitSeed, so any shard can generate any slice
// independently. With a capacious buf it performs zero allocations.
//
// Every fixed-range draw goes through a precomputed rng.Bound, which
// returns exactly what Intn would from the same stream without a division.
// Tokens are written as whole slots, so Describe may overwrite up to
// slotSize bytes of buf's spare capacity past the returned length.
func (g *Generator) Describe(i int, buf []byte) ([]byte, int) {
	r := rng.Seeded(par.SplitSeed(g.seed, i))
	v := g.voc
	dir := g.direction(&r)
	kw := g.spec.Keywords
	noise := g.spec.Noise
	start := len(buf)
	for kw+noise > 0 {
		var pick int
		if n := kw + noise; n < maxTokenBound {
			pick = r.Below(&v.tokens[n])
		} else {
			pick = r.Intn(n)
		}
		var tok *slot
		if pick < kw {
			// Plant a keyword: usually from the true direction, sometimes
			// (Overlap) from a foreign one.
			d := dir
			if g.spec.Overlap > 0 && r.Float64() < g.spec.Overlap {
				d = (dir + 1 + r.Intn(4)) % 5
			}
			tok = &v.words[d][r.Below(&v.wordBound[d])]
			kw--
		} else {
			tok = &v.filler[r.Below(&v.fillerBound)]
			noise--
		}
		n := len(buf)
		if cap(buf)-n < slotSize {
			buf = slices.Grow(buf, slotSize)
		}
		// Copying through a local lets the compiler move the slot in
		// registers; a direct slot-to-slot assignment calls memmove.
		t := *tok
		*(*slot)(buf[n : n+slotSize]) = t
		buf = buf[:n+int(t[slotSize-1])]
	}
	if len(buf) > start {
		buf = buf[:len(buf)-1] // the last token's trailing space
	}
	return buf, dir
}

// Tool materializes entry i as a catalog.Tool — the allocating convenience
// the streamed JSON export uses. The manual label (Direction) is the true
// direction the entry was generated from.
func (g *Generator) Tool(i int) catalog.Tool {
	desc, dir := g.Describe(i, nil)
	return catalog.Tool{
		Name:        fmt.Sprintf("syn-%08d", i),
		Direction:   catalog.Directions()[dir],
		Description: string(desc),
	}
}

// ExportTools streams entries [0, n) of the corpus as the catalog tool
// format through w — the bridge from generated corpora to every consumer
// of catalog JSON.
func (g *Generator) ExportTools(w *catalog.ToolWriter, n int) error {
	for i := 0; i < n; i++ {
		if err := w.Write(g.Tool(i)); err != nil {
			return err
		}
	}
	return w.Close()
}
