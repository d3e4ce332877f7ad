package corpus

// The sharded classification engine. The corpus is cut into fixed-size
// shards of ShardSize entries; each shard's classification aggregate is an
// exact-integer summary (confusion counts, length sums) that merges
// associatively, so par.MapReduceScratch can fold shards in index order and
// produce bit-identical results at any worker count. Every shard aggregate
// is memoized in the content-addressed store under a key derived from the
// generator parameters, the compiled keyword scheme, and the shard's entry
// range — never from the total corpus size — which gives the two scaling
// properties the engine is for:
//
//   - warm re-run: every shard resolves from the store, zero bodies execute;
//   - growth: extending N leaves the keys of untouched full shards
//     identical, so only the previously-partial shard and the new tail
//     shards execute (partial invalidation, pinned by tests).

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/cas"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/par"
)

// ShardSize is the fixed number of entries per memo shard. It is a
// constant, like par's shard geometry: shard boundaries must depend only on
// entry indices, never on worker count or total size, or the memo keys
// would not survive re-sharding.
const ShardSize = 4096

// shardVersion is folded into every shard memo key; bump it when the
// aggregate schema or the generation recipe changes.
const shardVersion = "corpus/shard/v1"

// NumShards reports how many shards a corpus of n entries splits into.
func NumShards(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + ShardSize - 1) / ShardSize
}

// Aggregate is the exact-integer classification summary of a corpus slice.
// Merging is elementwise addition (min/max for the length bounds), so the
// merged value is independent of merge order and worker count by
// construction. It round-trips through JSON for content-addressed storage.
type Aggregate struct {
	// Total counts classified entries.
	Total int `json:"total"`
	// Confusion[t][p] counts entries whose true direction is t and
	// predicted direction is p (canonical indices).
	Confusion [5][5]int `json:"confusion"`
	// DescBytes sums description lengths.
	DescBytes int64 `json:"desc_bytes"`
	// MinLen / MaxLen bound description lengths.
	MinLen int `json:"min_len"`
	MaxLen int `json:"max_len"`
	// KeywordHits sums the distinct winning-direction keyword matches.
	KeywordHits int64 `json:"keyword_hits"`
}

// Merge folds b into a. The zero Aggregate is the identity.
func (a *Aggregate) Merge(b *Aggregate) {
	if b.Total == 0 {
		return
	}
	if a.Total == 0 {
		*a = *b
		return
	}
	a.Total += b.Total
	for t := 0; t < 5; t++ {
		for p := 0; p < 5; p++ {
			a.Confusion[t][p] += b.Confusion[t][p]
		}
	}
	a.DescBytes += b.DescBytes
	a.MinLen = min(a.MinLen, b.MinLen)
	a.MaxLen = max(a.MaxLen, b.MaxLen)
	a.KeywordHits += b.KeywordHits
}

// TrueCount returns how many entries were generated with direction d.
func (a *Aggregate) TrueCount(d int) int {
	n := 0
	for p := 0; p < 5; p++ {
		n += a.Confusion[d][p]
	}
	return n
}

// PredictedCount returns how many entries were classified into direction d.
func (a *Aggregate) PredictedCount(d int) int {
	n := 0
	for t := 0; t < 5; t++ {
		n += a.Confusion[t][d]
	}
	return n
}

// Correct returns the diagonal sum: entries whose prediction matched the
// generated direction.
func (a *Aggregate) Correct() int {
	n := 0
	for d := 0; d < 5; d++ {
		n += a.Confusion[d][d]
	}
	return n
}

// Accuracy is the fraction of correctly classified entries.
func (a *Aggregate) Accuracy() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Correct()) / float64(a.Total)
}

// RunStats reports how a sharded run was satisfied. It never affects the
// Aggregate — only telemetry and tests read it.
type RunStats struct {
	// ShardsExecuted counts shard bodies that actually classified entries.
	ShardsExecuted int
	// ShardsCached counts shards served from the content-addressed store.
	ShardsCached int
}

// shardScratch is the pooled working set of one in-flight shard body: a
// classifier scratch and a description buffer for each of the two entries
// generated and classified together, reused across shards and across
// whole runs.
type shardScratch struct {
	cls [2]core.ClassifyScratch
	buf [2][]byte
}

var scratchPool = par.NewPool(func() *shardScratch { return &shardScratch{} })

// shardKey derives shard s's memo key. The fingerprint covers everything
// that determines the shard's aggregate — generation parameters, root seed,
// compiled keyword scheme, shard index and entry range — and nothing that
// doesn't (total corpus size, worker count).
func shardKey(g *Generator, s, lo, hi int) cas.Key {
	fp := fmt.Sprintf("%s|scheme=%s|%s|seed=%d|range=%d:%d",
		shardVersion, core.SchemeFingerprint(), g.spec.fingerprint(), g.seed, lo, hi)
	return cas.StepKey("corpus", fmt.Sprintf("shard-%d", s), fp, nil)
}

// classifyShard generates and classifies entries [lo, hi) into a fresh
// aggregate using the pooled scratch. Entries go in pairs through
// ClassifyPair, whose two interleaved table walks outrun two single scans;
// an odd last entry goes alone.
func classifyShard(g *Generator, cls *core.Classifier, lo, hi int, sc *shardScratch) Aggregate {
	agg := Aggregate{MinLen: math.MaxInt}
	a, b := &sc.cls[0], &sc.cls[1]
	i := lo
	for ; i+1 < hi; i += 2 {
		var da, db int
		sc.buf[0], da = g.Describe(i, sc.buf[0][:0])
		sc.buf[1], db = g.Describe(i+1, sc.buf[1][:0])
		pa, pb := cls.ClassifyPair(sc.buf[0], sc.buf[1], a, b)
		agg.add(da, pa, len(sc.buf[0]), a)
		agg.add(db, pb, len(sc.buf[1]), b)
	}
	if i < hi {
		var d int
		sc.buf[0], d = g.Describe(i, sc.buf[0][:0])
		agg.add(d, cls.ClassifyBytes(sc.buf[0], a), len(sc.buf[0]), a)
	}
	return agg
}

// add counts one classified entry: true direction dir, predicted direction
// pred, description length n, and the keyword hits left in s.
func (a *Aggregate) add(dir, pred, n int, s *core.ClassifyScratch) {
	a.Total++
	a.Confusion[dir][pred]++
	a.DescBytes += int64(n)
	a.MinLen = min(a.MinLen, n)
	a.MaxLen = max(a.MaxLen, n)
	a.KeywordHits += int64(s.Matched())
}

// Classify generates and classifies entries [lo, hi) of the corpus on
// pooled scratch and returns their aggregate: one shard body, without the
// store, for callers that classify a small corpus whole.
func (g *Generator) Classify(lo, hi int) Aggregate {
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	return classifyShard(g, core.Compiled(), lo, hi, sc)
}

// lookupShard serves a memoized shard aggregate from the store.
func lookupShard(store cas.Store, key cas.Key) (*Aggregate, bool, error) {
	target, ok, err := store.Resolve(key)
	if err != nil || !ok {
		return nil, false, err
	}
	data, found, err := store.Get(target)
	if err != nil || !found {
		// Dangling link (evicted artifact): fall back to executing.
		return nil, false, err
	}
	var agg Aggregate
	if err := json.Unmarshal(data, &agg); err != nil {
		return nil, false, fmt.Errorf("corpus: decoding cached shard: %w", err)
	}
	return &agg, true, nil
}

// storeShard memoizes one executed shard aggregate.
func storeShard(store cas.Store, key cas.Key, agg *Aggregate) error {
	data, err := json.Marshal(agg)
	if err != nil {
		return fmt.Errorf("corpus: encoding shard: %w", err)
	}
	artifact, err := store.Put(data)
	if err != nil {
		return err
	}
	return store.Link(key, artifact)
}

// ClassifyAll classifies the whole corpus of g under env: a
// par.MapReduceScratch over the corpus shards, each shard either served
// from env.Store or generated+classified through the compiled automaton on
// pooled scratch, partials merged in shard order. The Aggregate is
// bit-identical for any worker count and any cache state; RunStats reports
// the hit/execute split (also accumulated on env.Metrics as
// corpus.shards.hit / corpus.shards.exec).
func ClassifyAll(env *exp.Env, g *Generator) (*Aggregate, RunStats, error) {
	type partial struct {
		agg      Aggregate
		executed int
		cached   int
	}
	nShards := NumShards(g.spec.N)
	cls := core.Compiled()
	opts := append(append([]par.Option{}, env.ParOpts()...), par.Grain(1))
	res, err := par.MapReduceScratch(nShards, scratchPool,
		func(_, lo, hi int, sc *shardScratch) (partial, error) {
			var p partial
			for s := lo; s < hi; s++ {
				elo, ehi := s*ShardSize, min((s+1)*ShardSize, g.spec.N)
				var key cas.Key
				if env.Store != nil {
					key = shardKey(g, s, elo, ehi)
					if agg, ok, err := lookupShard(env.Store, key); err != nil {
						return p, err
					} else if ok {
						p.agg.Merge(agg)
						p.cached++
						continue
					}
				}
				agg := classifyShard(g, cls, elo, ehi, sc)
				if env.Store != nil {
					if err := storeShard(env.Store, key, &agg); err != nil {
						return p, err
					}
				}
				p.agg.Merge(&agg)
				p.executed++
			}
			return p, nil
		},
		func(a, b partial) partial {
			a.agg.Merge(&b.agg)
			a.executed += b.executed
			a.cached += b.cached
			return a
		}, opts...)
	if err != nil {
		return nil, RunStats{}, err
	}
	stats := RunStats{ShardsExecuted: res.executed, ShardsCached: res.cached}
	if env.Metrics != nil {
		env.Metrics.Inc("corpus.shards.exec", int64(stats.ShardsExecuted))
		env.Metrics.Inc("corpus.shards.hit", int64(stats.ShardsCached))
	}
	return &res.agg, stats, nil
}

// abbr abbreviates a direction to its initials, like the core confusion
// matrix rendering ("Interactive computing" → "IC").
func abbr(d catalog.Direction) string {
	out := ""
	for _, w := range strings.Fields(string(d)) {
		out += strings.ToUpper(w[:1])
	}
	return out
}

// RenderClassify renders the classification view of an aggregate: the 5×5
// confusion matrix, accuracy, and the predicted-direction distribution.
// Pure integer state in, deterministic bytes out.
func (a *Aggregate) RenderClassify() string {
	var b strings.Builder
	fmt.Fprintf(&b, "corpus classification: %d entries\n\n", a.Total)
	fmt.Fprintf(&b, "%-6s", "t\\p")
	dirs := catalog.Directions()
	for _, d := range dirs {
		fmt.Fprintf(&b, "%9s", abbr(d))
	}
	b.WriteByte('\n')
	for t, d := range dirs {
		fmt.Fprintf(&b, "%-6s", abbr(d))
		for p := range dirs {
			fmt.Fprintf(&b, "%9d", a.Confusion[t][p])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\naccuracy: %.4f (%d/%d correct, %d misclassified)\n",
		a.Accuracy(), a.Correct(), a.Total, a.Total-a.Correct())
	fmt.Fprintf(&b, "\n%-26s %9s %9s\n", "direction", "true", "predicted")
	for i, d := range dirs {
		fmt.Fprintf(&b, "%-26s %9d %9d\n", string(d), a.TrueCount(i), a.PredictedCount(i))
	}
	return b.String()
}

// RenderStats renders the corpus-shape view: direction distribution with
// shares, and description length statistics.
func (a *Aggregate) RenderStats() string {
	var b strings.Builder
	fmt.Fprintf(&b, "corpus statistics: %d entries\n\n", a.Total)
	fmt.Fprintf(&b, "%-26s %9s %8s\n", "direction", "entries", "share")
	for i, d := range catalog.Directions() {
		share := 0.0
		if a.Total > 0 {
			share = float64(a.TrueCount(i)) / float64(a.Total)
		}
		fmt.Fprintf(&b, "%-26s %9d %7.2f%%\n", string(d), a.TrueCount(i), share*100)
	}
	meanLen, meanHits := 0.0, 0.0
	minLen := a.MinLen
	if a.Total > 0 {
		meanLen = float64(a.DescBytes) / float64(a.Total)
		meanHits = float64(a.KeywordHits) / float64(a.Total)
	} else {
		minLen = 0
	}
	fmt.Fprintf(&b, "\ndescription length: min %d, mean %.1f, max %d bytes (%d total)\n",
		minLen, meanLen, a.MaxLen, a.DescBytes)
	fmt.Fprintf(&b, "winning-direction keyword hits: %.2f per entry\n", meanHits)
	return b.String()
}
