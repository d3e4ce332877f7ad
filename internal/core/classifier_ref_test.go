package core

import (
	"sort"
	"strings"

	"repro/internal/catalog"
)

// classifyDescriptionRef is the pre-automaton reference: the seed
// strings.Contains scan with the small-scale waste fixed — the matched map
// for losing directions is gone (the winner's keywords are re-collected in
// a second pass over one direction only) and Scores is pre-sized. It
// remains the semantic oracle for the equivalence tests and the baseline
// the kernel benchmark measures the automaton against.
func classifyDescriptionRef(desc string) Classification {
	text := normalize(desc)
	scores := make(map[catalog.Direction]float64, 5)
	for dir, kws := range directionKeywords {
		for kw, w := range kws {
			if strings.Contains(text, kw) {
				scores[dir] += w
			}
		}
	}
	best := catalog.Orchestration
	bestScore := 0.0
	for _, dir := range catalog.Directions() {
		if scores[dir] > bestScore {
			best = dir
			bestScore = scores[dir]
		}
	}
	var matched []string
	for kw := range directionKeywords[best] {
		if strings.Contains(text, kw) {
			matched = append(matched, kw)
		}
	}
	sort.Strings(matched)
	return Classification{Direction: best, Scores: scores, Matched: matched}
}
