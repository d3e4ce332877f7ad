package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exp"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// corpusN is the corpus size: the 10^6-entry scale the classifier is built
// for, 245 shards of 4096 entries.
const corpusN = 1_000_000

// corpusWarmRepeats is how many warm ClassifyAll calls follow each cold
// one: enough that a run of 30 s holds about a thousand of them, so their
// p99 has ten samples beyond it.
const corpusWarmRepeats = 45

func corpusEnv(seed int64, store cas.Store, workers int) *exp.Env {
	sim := clock.NewSim(seed)
	return &exp.Env{Seed: seed, Clock: sim, Metrics: telemetry.NewWithClock(sim),
		Par: []par.Option{par.Workers(workers)}, Store: store}
}

// shardTimer times each cold corpus shard at the only seam a caller of
// ClassifyAll sees, the store: a shard runs from the Resolve that misses
// its memo key to the Link that publishes its aggregate. With a tracer it
// also records each shard as a "corpus.shard" span.
type shardTimer struct {
	cas.Store
	tr     *tracer
	mu     sync.Mutex
	cold   []float64             // ms
	missed map[cas.Key]time.Time // memo key → Resolve start
}

func newShardTimer(s cas.Store, tr *tracer) *shardTimer {
	return &shardTimer{Store: s, tr: tr, missed: map[cas.Key]time.Time{}}
}

func (t *shardTimer) Resolve(name cas.Key) (cas.Key, bool, error) {
	t0 := time.Now()
	k, ok, err := t.Store.Resolve(name)
	if !ok {
		t.mu.Lock()
		t.missed[name] = t0
		t.mu.Unlock()
	}
	return k, ok, err
}

func (t *shardTimer) Link(name, target cas.Key) error {
	err := t.Store.Link(name, target)
	end := time.Now()
	t.mu.Lock()
	t0, seen := t.missed[name]
	if seen {
		t.cold = append(t.cold, ms(end.Sub(t0)))
		delete(t.missed, name)
	}
	t.mu.Unlock()
	if seen && t.tr != nil {
		t.tr.add("corpus.shard", t.tr.cur.Load(), t0, end)
	}
	return err
}

// classify runs one ClassifyAll and checks its aggregate against want
// (when set): the same bytes for every worker count and cache state.
func classify(env *exp.Env, g *corpus.Generator, want []byte, rep *report) ([]byte, time.Duration, error) {
	t0 := time.Now()
	agg, _, err := corpus.ClassifyAll(env, g)
	wall := time.Since(t0)
	rep.op(err == nil, "corpus: ClassifyAll: %v", err)
	if err != nil {
		return nil, 0, err
	}
	sum := 0
	for _, row := range agg.Confusion {
		for _, v := range row {
			sum += v
		}
	}
	rep.op(agg.Total == corpusN && sum == corpusN, "corpus: aggregate covers %d entries, confusion %d, want %d", agg.Total, sum, corpusN)
	got, err := json.Marshal(agg)
	if err != nil {
		return nil, 0, err
	}
	if want != nil {
		rep.op(bytes.Equal(got, want), "corpus: aggregate differs from the first cold run")
	}
	return got, wall, nil
}

// runCorpus is the corpus workload: one 10^6-entry corpus classified cold
// into a fresh MemStore at nproc workers, then warm; repeated until the
// deadline, then once at one worker.
func runCorpus(cfg config, rep *report) error {
	g := corpus.NewGenerator(corpus.DefaultSpec(corpusN), cfg.seed)
	shards := corpus.NumShards(corpusN)
	rep.inputs["N"] = corpusN
	rep.inputs["shards"] = shards
	rep.inputs["workers"] = cfg.nproc
	if cfg.trace {
		return traceCorpus(cfg, rep, g, shards)
	}

	var want []byte
	var iters []corpusIter
	for it := 0; it == 0 || time.Now().Before(cfg.deadline); it++ {
		st := newShardTimer(cas.NewMemStore(), nil)
		env := corpusEnv(cfg.seed, st, cfg.nproc)
		win := openWindow()
		m0 := readMem()
		agg, wall, err := classify(env, g, want, rep)
		if err != nil {
			return err
		}
		d := diffMem(m0, readMem())
		if want == nil {
			want = agg
		}
		ci := corpusIter{cold: corpusN / wall.Seconds(), alloc: float64(d.bytes) / corpusN, jobLat: st.cold}
		for w := 0; w < corpusWarmRepeats; w++ {
			_, wall, err := classify(env, g, want, rep)
			if err != nil {
				return err
			}
			ci.warm = append(ci.warm, corpusN/wall.Seconds())
			ci.reqLat = append(ci.reqLat, ms(wall))
		}
		ci.win = win.close()
		exec, hit := env.Metrics.Counter("corpus.shards.exec"), env.Metrics.Counter("corpus.shards.hit")
		rep.op(exec == int64(shards) && hit == int64(shards*corpusWarmRepeats),
			"corpus: %d shards executed and %d served warm, want %d and %d", exec, hit, shards, shards*corpusWarmRepeats)
		iters = append(iters, ci)
		if it == 0 {
			firstPeakRSS(rep)
		}
	}
	// The single-worker run is the last of the byte-identity checks.
	if _, _, err := classify(corpusEnv(cfg.seed, cas.NewMemStore(), 1), g, want, rep); err != nil {
		return err
	}
	rep.inputs["iterations"] = len(iters)
	wins := make([]window, len(iters))
	for i, it := range iters {
		wins[i] = it.win
	}
	keep := calm(rep, "iteration", wins, cfg.nproc)
	var cold, warm, allocs, rate, jobLat, reqLat []float64
	for i, it := range iters {
		if keep[i] {
			cold, allocs = append(cold, it.cold), append(allocs, it.alloc)
			warm, reqLat = append(warm, it.warm...), append(reqLat, it.reqLat...)
			jobLat = append(jobLat, it.jobLat...)
			for _, l := range it.reqLat {
				rate = append(rate, 1e3/l)
			}
		}
	}
	rep.med("cold_items_per_s", "items/s", cold)
	rep.med("warm_items_per_s", "items/s", warm)
	rep.med("alloc_bytes_per_item", "B", allocs)
	rep.med("req_per_s", "req/s", rate)
	rep.set("req_p50_ms", "ms", median(reqLat), len(reqLat))
	rep.tail("req_p99_ms", reqLat, 99)
	rep.set("job_p50_ms", "ms", median(jobLat), len(jobLat))
	rep.tail("job_p99_ms", jobLat, 99)
	return nil
}

// corpusIter is what one untraced iteration measured.
type corpusIter struct {
	cold, alloc    float64
	warm           []float64
	jobLat, reqLat []float64 // cold shards, warm ClassifyAll calls (ms)
	win            window
}

// traceCorpus takes the corpus workload's per-layer numbers: a sequential
// Describe + ClassifyBytes pass, single-worker and nproc-worker cold runs
// (untraced) for the parallel efficiency, and traced cold and warm runs
// through the timed store.
func traceCorpus(cfg config, rep *report, g *corpus.Generator, shards int) error {
	describeNs, classifyNs, descBytes := sequentialPass(g)
	rep.set("corpus.describe_ns_per_entry", "ns", describeNs/corpusN, corpusN)
	rep.set("core.classify_ns_per_entry", "ns", classifyNs/corpusN, corpusN)
	rep.set("core.bytes_per_entry", "B", float64(descBytes)/corpusN, corpusN)

	tr := rep.tr
	var want []byte
	var t1, tn, traced, warm, attributed []float64
	var ref memDelta
	var envs []*exp.Env
	for it := 0; it == 0 || time.Now().Before(cfg.deadline); it++ {
		m0 := readMem()
		agg, wall, err := classify(corpusEnv(cfg.seed, cas.NewMemStore(), cfg.nproc), g, want, rep)
		if err != nil {
			return err
		}
		if want == nil {
			want, ref = agg, diffMem(m0, readMem())
		}
		tn = append(tn, wall.Seconds())
		if _, wall, err = classify(corpusEnv(cfg.seed, cas.NewMemStore(), 1), g, want, rep); err != nil {
			return err
		}
		t1 = append(t1, wall.Seconds())

		env := corpusEnv(cfg.seed, newShardTimer(timedStore{cas.NewMemStore(), tr}, tr), cfg.nproc)
		envs = append(envs, env)
		for pass := 0; pass < 2; pass++ {
			mark := tr.mark()
			t0 := time.Now()
			i := tr.begin("corpus.classify_all", fmt.Sprintf("pass-%d", pass), "", -1)
			tr.cur.Store(i)
			_, wall, err := classify(env, g, want, rep)
			tr.cur.Store(-1)
			tr.finish(i, 0)
			if err != nil {
				return err
			}
			if pass == 0 {
				traced = append(traced, wall.Seconds())
				attributed = append(attributed, attributedShare(tr.snapshot()[mark:], tr.at(t0), tr.at(t0.Add(wall))))
			} else {
				warm = append(warm, wall.Seconds())
			}
		}
	}
	rep.inputs["iterations"] = len(tn)
	rep.setRuntime(ref, corpusN)
	rep.set("par.efficiency", "ratio", median(t1)/(float64(cfg.nproc)*median(tn)), len(tn))
	rep.set("corpus.warm_us_per_shard", "us", median(warm)*1e6/float64(shards), len(warm))
	rep.set("trace.overhead_ratio", "ratio", median(traced)/median(tn), len(traced))
	rep.set("trace.attributed_ratio", "ratio", median(attributed), len(attributed))
	layerMetrics(rep, tr.snapshot(), len(envs))
	programCounters(rep, func(n string) int64 { return counterSum(envs, n) }, len(envs))
	return nil
}

// sequentialPass generates and classifies the whole corpus on one
// goroutine, a shard-sized block at a time, timing generation and
// classification separately. It returns the total nanoseconds of each and
// the description bytes.
func sequentialPass(g *corpus.Generator) (describeNs, classifyNs float64, descBytes int64) {
	cls := core.Compiled()
	var sc core.ClassifyScratch
	buf := make([]byte, 0, 1<<20)
	ends := make([]int, 0, corpus.ShardSize)
	for lo := 0; lo < corpusN; lo += corpus.ShardSize {
		hi := min(lo+corpus.ShardSize, corpusN)
		buf, ends = buf[:0], ends[:0]
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			buf, _ = g.Describe(i, buf)
			ends = append(ends, len(buf))
		}
		t1 := time.Now()
		prev := 0
		for _, e := range ends {
			cls.ClassifyBytes(buf[prev:e], &sc)
			prev = e
		}
		t2 := time.Now()
		describeNs += float64(t1.Sub(t0))
		classifyNs += float64(t2.Sub(t1))
		descBytes += int64(len(buf))
	}
	return describeNs, classifyNs, descBytes
}
