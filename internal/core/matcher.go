package core

// The compiled keyword automaton: the classification hot path rebuilt for
// million-entry corpora (ROADMAP "Corpus at scale").
//
// The seed classifier ran O(directions × keywords) strings.Contains scans
// per document and allocated two maps plus matched-keyword slices per call.
// At 25 tools that is invisible; at 10^7 synthetic tool descriptions it is
// the whole budget. This file compiles directionKeywords once into an
// Aho-Corasick automaton (Aho & Corasick, CACM 1975) lowered to a byte-class
// DFA: classification is then a single left-to-right pass over the text —
// one class lookup and one table load per input byte — that discovers every
// keyword occurrence of every direction simultaneously, with zero
// steady-state allocations when driven through a reusable ClassifyScratch.
//
// The table has one column per byte class, not per byte. Every distinct
// keyword byte gets a column; ASCII uppercase shares the column of its
// lowercase letter; every other ASCII byte shares one column that sends each
// state to the root; non-ASCII bytes share an abort column. With ~30 classes
// the whole table is a few tens of KB and stays in L1.
//
// Normalization is compiled into the table too. The reference semantics
// match on normalize(desc) = strings.Join(strings.Fields(strings.ToLower(desc)), " ").
// All six ASCII whitespace bytes map to the space column, and every state
// entered by a space (the root included) loops to itself on further
// whitespace, so a whitespace run acts as the single separating space of the
// normalized text and leading or trailing runs leave no trace. That is exact
// only if no keyword starts or ends with whitespace, holds a run of it or
// holds whitespace other than ' ' — buildClassifier panics on a scheme that
// breaks this. Non-ASCII input aborts the scan and is rescanned in its
// materialized normalized form with a second class map that gives
// non-ASCII keyword bytes their columns. The equivalence tests and the fuzz
// target drive both paths against the strings.Contains reference.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/catalog"
)

// numDirections is the fixed direction alphabet of the study.
const numDirections = 5

// The fixed byte classes; keyword bytes other than ' ' take the columns
// after them.
const (
	colOther = 0 // bytes no keyword holds: every state goes to the root
	colAbort = 1 // non-ASCII bytes on the folded pass: the abort state
	colSpace = 2 // ' ' and, on the folded pass, the other ASCII whitespace
)

// pattern is one compiled keyword: its direction (canonical index), weight,
// and original spelling (for Classification.Matched).
type pattern struct {
	dir    int8
	weight float64
	kw     string
}

// Classifier is the compiled keyword automaton. Build it once (Compiled
// returns the process-wide instance over directionKeywords); Classify* calls
// are safe for concurrent use because matching only reads the tables —
// all per-call state lives in the caller's ClassifyScratch.
type Classifier struct {
	// trans is the byte-class DFA with goto and failure transitions
	// pre-resolved. Rows are premultiplied: a state's row is state<<shift,
	// and trans[row+class] is the successor's row, negated when the
	// successor recognizes patterns or is the abort state.
	trans []int32
	shift uint
	// abort is the negated row of the abort state.
	abort int32
	// fold maps raw input bytes to classes, folding ASCII case and
	// whitespace and sending non-ASCII bytes to colAbort. exact maps bytes
	// of already-normalized text, non-ASCII keyword bytes included.
	fold, exact [256]int32
	// outStart[s]..outStart[s+1] indexes outPat: the patterns recognized
	// when the scan stands in state s (own matches plus every suffix match
	// inherited through the failure chain).
	outStart []int32
	outPat   []int32
	pats     []pattern
}

// ClassifyScratch carries the per-call state of the zero-allocation
// classify kernel. The zero value is ready to use; reusing one scratch
// across calls (one per shard/goroutine — it is not concurrency-safe) makes
// steady-state classification allocation-free.
type ClassifyScratch struct {
	// Scores is the per-direction score of the last classified document,
	// indexed by catalog.Direction canonical index.
	Scores [numDirections]float64
	// nMatched counts distinct keywords of the winning direction.
	nMatched int
	// seen deduplicates pattern hits: seen[p] == epoch marks pattern p as
	// already counted for the current document (a keyword scores once no
	// matter how often it occurs, mirroring strings.Contains).
	seen  []uint32
	epoch uint32
	// fired lists the distinct pattern IDs hit by the current document.
	fired []int32
}

// begin resets the scratch for a new document against c.
func (s *ClassifyScratch) begin(c *Classifier) {
	if len(s.seen) < len(c.pats) {
		s.seen = make([]uint32, len(c.pats))
		s.fired = make([]int32, 0, len(c.pats))
	}
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: stale stamps could alias the new epoch
		clear(s.seen)
		s.epoch = 1
	}
	s.fired = s.fired[:0]
	for d := range s.Scores {
		s.Scores[d] = 0
	}
}

// checkKeyword panics unless kw is non-empty and already in normalized
// whitespace form — the precondition of the whitespace self-loop.
func checkKeyword(kw string) {
	if kw == "" || strings.Join(strings.Fields(kw), " ") != kw {
		panic(fmt.Sprintf("core: keyword %q is empty or has leading, trailing, repeated or non-space whitespace", kw))
	}
}

// buildClassifier compiles the weighted keyword scheme into the automaton.
// Construction order is deterministic: directions in canonical order,
// keywords sorted within each direction, so pattern IDs — and therefore
// every downstream artifact — never depend on map iteration order.
func buildClassifier(scheme map[catalog.Direction]map[string]float64) *Classifier {
	c := &Classifier{}
	maxStates := 1
	for di, dir := range catalog.Directions() {
		kws := make([]string, 0, len(scheme[dir]))
		for kw := range scheme[dir] {
			checkKeyword(kw)
			kws = append(kws, kw)
		}
		sort.Strings(kws)
		for _, kw := range kws {
			p := pattern{dir: int8(di), weight: scheme[dir][kw], kw: kw}
			c.pats = append(c.pats, p)
			maxStates += len(kw)
		}
	}
	// Byte classes: one column per distinct keyword byte, in first-use order.
	var col [256]int32 // colOther for bytes no keyword holds
	col[' '] = colSpace
	width := int32(colSpace + 1)
	for _, p := range c.pats {
		for i := 0; i < len(p.kw); i++ {
			if b := p.kw[i]; col[b] == colOther {
				col[b] = width
				width++
			}
		}
	}
	for b := 0; b < 256; b++ {
		switch {
		case b >= 0x80:
			c.fold[b], c.exact[b] = colAbort, col[b]
		case isASCIISpace(byte(b)):
			c.fold[b], c.exact[b] = colSpace, colSpace
		default:
			c.fold[b] = col[lowerASCII(byte(b))]
			c.exact[b] = c.fold[b]
		}
	}
	for 1<<c.shift < width {
		c.shift++
	}

	// Trie over classes, laid straight into the transition table: a zero
	// entry is an absent edge (state 0 is the root, never a child). One
	// spare row is kept for the abort state.
	next := make([]int32, (maxStates+1)<<c.shift)
	outs := make([][]int32, maxStates)
	spaced := []int32{0} // states entered by a space, the root included
	n := int32(1)
	for pid, p := range c.pats {
		s := int32(0)
		for i := 0; i < len(p.kw); i++ {
			k := s<<c.shift + col[p.kw[i]]
			if next[k] == 0 {
				next[k] = n
				if col[p.kw[i]] == colSpace {
					spaced = append(spaced, n)
				}
				n++
			}
			s = next[k]
		}
		outs[s] = append(outs[s], int32(pid))
	}

	// BFS: failure links, inherited outputs and the fail-resolved rows in
	// one pass (fail(v) is always closer to the root, so its row and output
	// list are complete before v is processed; v's own row still holds only
	// its trie edges).
	fail := make([]int32, n)
	queue := make([]int32, 0, n)
	for k := int32(0); k < 1<<c.shift; k++ {
		if ch := next[k]; ch != 0 {
			queue = append(queue, ch)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		f := fail[v]
		outs[v] = append(outs[v], outs[f]...)
		row, frow := v<<c.shift, f<<c.shift
		for k := int32(0); k < 1<<c.shift; k++ {
			if ch := next[row+k]; ch != 0 {
				fail[ch] = next[frow+k]
				queue = append(queue, ch)
			} else {
				next[row+k] = next[frow+k]
			}
		}
	}

	// Whitespace self-loops, the abort column, then premultiplied rows with
	// the output flag.
	abort := n
	next = next[:(n+1)<<c.shift]
	for _, s := range spaced {
		next[s<<c.shift+colSpace] = s
	}
	for s := int32(0); s <= abort; s++ {
		next[s<<c.shift+colAbort] = abort
	}
	for i, s := range next {
		next[i] = s << c.shift
		if s == abort || len(outs[s]) > 0 {
			next[i] = -next[i]
		}
	}
	c.trans = next
	c.abort = -(abort << c.shift)

	// Flatten the per-state output lists.
	c.outStart = make([]int32, n+1)
	for s, o := range outs[:n] {
		c.outStart[s+1] = c.outStart[s] + int32(len(o))
		c.outPat = append(c.outPat, o...)
	}
	return c
}

var (
	compiledOnce sync.Once
	compiled     *Classifier
)

// Compiled returns the process-wide classifier compiled from the study's
// weighted keyword scheme. The build runs once, on first use.
func Compiled() *Classifier {
	compiledOnce.Do(func() { compiled = buildClassifier(directionKeywords) })
	return compiled
}

// isASCIISpace reports the bytes strings.Fields splits on in ASCII text.
func isASCIISpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\v' || b == '\f' || b == '\r'
}

// lowerASCII folds A-Z onto a-z, leaving every other byte alone — exactly
// strings.ToLower restricted to ASCII input.
func lowerASCII(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + ('a' - 'A')
	}
	return b
}

// emit records the patterns recognized in state st.
func (c *Classifier) emit(st int32, s *ClassifyScratch) {
	for _, pid := range c.outPat[c.outStart[st]:c.outStart[st+1]] {
		if s.seen[pid] != s.epoch {
			s.seen[pid] = s.epoch
			s.fired = append(s.fired, pid)
			s.Scores[c.pats[pid].dir] += c.pats[pid].weight
		}
	}
}

// scan runs text through the DFA under the class map class, recording
// every pattern hit. It reports false, without completing, when it reaches
// the abort state.
func scan[T string | []byte](c *Classifier, text T, class *[256]int32, s *ClassifyScratch) bool {
	trans := c.trans
	row := int32(0)
	for i := 0; i < len(text); i++ {
		row = trans[row+class[text[i]]]
		if row < 0 {
			if row == c.abort {
				return false
			}
			row = -row
			c.emit(row>>c.shift, s)
		}
	}
	return true
}

// classify is the kernel behind ClassifyInto and ClassifyBytes.
func classify[T string | []byte](c *Classifier, desc T, s *ClassifyScratch) int {
	s.begin(c)
	if !scan(c, desc, &c.fold, s) {
		// Non-ASCII input: rescan the materialized normalized form.
		s.begin(c)
		scan(c, normalize(string(desc)), &c.exact, s)
	}
	w := winner(&s.Scores)
	s.nMatched = 0
	for _, pid := range s.fired {
		if int(c.pats[pid].dir) == w {
			s.nMatched++
		}
	}
	return w
}

// winner replicates the reference tie-break exactly: directions compete in
// canonical order under strict improvement, starting from Orchestration at
// score zero (the no-match fallback).
func winner(scores *[numDirections]float64) int {
	best := int(catalog.Orchestration.Index())
	bestScore := 0.0
	for d := 0; d < numDirections; d++ {
		if scores[d] > bestScore {
			best = d
			bestScore = scores[d]
		}
	}
	return best
}

// ClassifyInto classifies one description with zero steady-state
// allocations, returning the canonical index of the winning direction.
// Scores and the matched set of the winning direction are left in s
// (read them via s.Scores and MatchedAppend) until the next call.
//
// ClassifyInto and ClassifyBytes stay out of line: inlined into another
// package, the call to the generic kernel loses its escape facts there and
// moves the caller's scratch and buffer to the heap.
//
//go:noinline
func (c *Classifier) ClassifyInto(desc string, s *ClassifyScratch) int {
	return classify(c, desc, s)
}

// ClassifyBytes is ClassifyInto over a byte slice — the corpus pipeline
// classifies descriptions straight out of reused generation buffers without
// converting them to strings. The scan never retains the slice.
//
//go:noinline
func (c *Classifier) ClassifyBytes(desc []byte, s *ClassifyScratch) int {
	return classify(c, desc, s)
}

// Matched reports how many distinct keywords of the winning direction the
// last classified document hit.
func (s *ClassifyScratch) Matched() int { return s.nMatched }

// MatchedAppend appends the distinct matched keywords of the winning
// direction w (as returned by the last ClassifyInto/ClassifyBytes) to dst
// in sorted order and returns the extended slice. With a capacious dst it
// does not allocate.
func (c *Classifier) MatchedAppend(dst []string, w int, s *ClassifyScratch) []string {
	n := len(dst)
	for _, pid := range s.fired {
		if int(c.pats[pid].dir) == w {
			dst = append(dst, c.pats[pid].kw)
		}
	}
	sort.Strings(dst[n:])
	return dst
}

// Patterns returns the number of compiled keywords.
func (c *Classifier) Patterns() int { return len(c.pats) }

// States returns the number of DFA states, the abort state excluded
// (diagnostics and tests).
func (c *Classifier) States() int { return len(c.outStart) - 1 }

// SchemeFingerprint is the stable identity of the compiled keyword scheme:
// a SHA-256 over every (direction, keyword, weight) triple in canonical
// order. The corpus engine folds it into its per-shard memo keys, so editing
// directionKeywords invalidates every cached classification aggregate
// automatically — no manual version bump to forget.
func SchemeFingerprint() string {
	h := sha256.New()
	for _, p := range Compiled().pats {
		fmt.Fprintf(h, "%d:%s:%g\n", p.dir, p.kw, p.weight)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// KeywordsFor returns the keyword list of one direction, sorted — the
// vocabulary seam the synthetic corpus generator plants signal from.
func KeywordsFor(d catalog.Direction) []string {
	kws := make([]string, 0, len(directionKeywords[d]))
	for kw := range directionKeywords[d] {
		kws = append(kws, kw)
	}
	sort.Strings(kws)
	return kws
}
