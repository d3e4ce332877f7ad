package core

import (
	"testing"

	"repro/internal/catalog"
)

// benchDescs cycles the 25 real catalog descriptions — representative
// lengths and keyword densities for the single-document kernel numbers
// recorded in BENCH_corpus.json.
func benchDescs() []string {
	tools := catalog.Default().Tools
	out := make([]string, len(tools))
	for i, t := range tools {
		out[i] = t.Description
	}
	return out
}

// BenchmarkClassifyKernel measures the compiled-automaton hot path: one
// fused normalize+match DFA pass per document, zero allocations.
func BenchmarkClassifyKernel(b *testing.B) {
	descs := benchDescs()
	c := Compiled()
	var s ClassifyScratch
	c.ClassifyInto(descs[0], &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ClassifyInto(descs[i%len(descs)], &s)
	}
}

// BenchmarkClassifyKernelBaseline measures the pre-automaton reference
// (normalize + O(directions × keywords) strings.Contains) on the same
// inputs — the denominator of the ≥5× acceptance bar.
func BenchmarkClassifyKernelBaseline(b *testing.B) {
	descs := benchDescs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classifyDescriptionRef(descs[i%len(descs)])
	}
}

// BenchmarkClassifyDescription measures the allocating convenience API on
// the automaton (result maps only; the kernel state is pooled).
func BenchmarkClassifyDescription(b *testing.B) {
	descs := benchDescs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClassifyDescription(descs[i%len(descs)])
	}
}

// BenchmarkClassifyPair measures the two-stream kernel: one op classifies
// a pair of catalog descriptions (so half its ns/op is the per-document
// cost to set against BenchmarkClassifyKernel), zero allocations.
func BenchmarkClassifyPair(b *testing.B) {
	descs := benchDescs()
	bs := make([][]byte, len(descs))
	for i, d := range descs {
		bs[i] = []byte(d)
	}
	c := Compiled()
	var sa, sb ClassifyScratch
	c.ClassifyPair(bs[0], bs[1], &sa, &sb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := 2 * i % len(bs)
		c.ClassifyPair(bs[j], bs[(j+1)%len(bs)], &sa, &sb)
	}
}
