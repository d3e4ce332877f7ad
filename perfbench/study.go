package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/experiments"
	"repro/internal/runpack"
	"repro/internal/telemetry"
)

// studyK is how many consecutive root seeds one pass runs through every
// experiment, as `smsreport -run all -cache DIR` would once per seed.
const studyK = 6

// studyClosedLoop is how long each iteration's closed loop of warm
// Registry.Run requests lasts.
const studyClosedLoop = 200 * time.Millisecond

// studyEnv builds the environment `smsreport -run all` builds for a root
// seed (see experiments.CLIOptions.Env), over a shared store.
func studyEnv(seed int64, store cas.Store) *exp.Env {
	sim := clock.NewSim(seed)
	return &exp.Env{Seed: seed, Clock: sim, Metrics: telemetry.NewWithClock(sim), Store: store}
}

// studyPass is one pass of every experiment over every root seed.
type studyPass struct {
	envs    []*exp.Env
	results [][]*exp.Result // [root][experiment], registry name order
	start   time.Time
	wall    time.Duration
	lat     []float64 // per Registry.Run, ms
}

// runStudyPass runs every experiment for every root seed, in order, against
// store. A traced pass opens an "exp.run" span around each call.
func runStudyPass(reg *exp.Registry, names []string, roots []int64, store cas.Store, tr *tracer, rep *report) (*studyPass, error) {
	p := &studyPass{lat: make([]float64, 0, len(roots)*len(names))}
	ctx := context.Background()
	p.start = time.Now()
	for _, root := range roots {
		env := studyEnv(root, store)
		row := make([]*exp.Result, len(names))
		for j, name := range names {
			t0 := time.Now()
			var i int32 = -1
			if tr != nil {
				i = tr.begin("exp.run", name, "", -1)
				tr.cur.Store(i)
			}
			res, err := reg.Run(ctx, env, name)
			if tr != nil {
				tr.finish(i, 0)
				tr.cur.Store(-1)
			}
			p.lat = append(p.lat, ms(time.Since(t0)))
			rep.op(err == nil, "study: %s seed %d: %v", name, root, err)
			if err != nil {
				return nil, fmt.Errorf("study: %s seed %d: %w", name, root, err)
			}
			row[j] = res
		}
		p.envs = append(p.envs, env)
		p.results = append(p.results, row)
	}
	p.wall = time.Since(p.start)
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// resultJSON encodes a Result with its cache flag cleared, the form in
// which a cold and a warm run of the same (seed, experiment) must agree.
func resultJSON(res *exp.Result) ([]byte, error) {
	r := *res
	r.Provenance.Cached = false
	return json.Marshal(&r)
}

// counterSum adds a telemetry counter over every pass environment.
func counterSum(envs []*exp.Env, name string) int64 {
	var n int64
	for _, e := range envs {
		n += e.Metrics.Counter(name)
	}
	return n
}

// studyClosed runs nproc clients that each issue warm Registry.Run
// requests back to back for d, and returns the latencies and the rate.
func studyClosed(reg *exp.Registry, names []string, roots []int64, store cas.Store, nproc int, d time.Duration, rep *report) ([]float64, float64) {
	lats := make([][]float64, nproc)
	fails := make([]int, nproc)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			envs := make([]*exp.Env, len(roots))
			for i, r := range roots {
				envs[i] = studyEnv(r, store)
			}
			n := len(roots) * len(names)
			for k := c * n / nproc; time.Now().Before(end); k++ {
				root, name := k/len(names)%len(roots), names[k%len(names)]
				t0 := time.Now()
				res, err := reg.Run(context.Background(), envs[root], name)
				lats[c] = append(lats[c], ms(time.Since(t0)))
				if err != nil || !res.Provenance.Cached {
					fails[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []float64
	for c := range lats {
		all = append(all, lats[c]...)
		rep.attempted += int64(len(lats[c]))
		for i := 0; i < fails[c]; i++ {
			rep.fail("study: a warm closed-loop request failed or missed the store")
		}
	}
	return all, float64(len(all)) / wall.Seconds()
}

// sealAndVerify seals every Result of one root seed into a runpack and
// verifies it.
func sealAndVerify(reg *exp.Registry, env *exp.Env, row []*exp.Result, rep *report) {
	key := runpack.DevKey()
	for _, res := range row {
		pack, err := reg.Seal(res, env, key)
		if err == nil {
			err = pack.Verify(runpack.VerifyOpts{Key: &key})
		}
		rep.op(err == nil, "study: seal %s: %v", res.Provenance.Experiment, err)
	}
}

// studyIter is what one untraced iteration measured.
type studyIter struct {
	cold, warm, alloc, rate float64
	jobLat, reqLat          []float64
	win                     window
}

// runStudy is the study workload: K root seeds through all 42 experiments
// into a fresh store (cold), then the same seeds again (warm), then a
// closed loop of warm requests; repeated until the deadline.
//
// The store is a MemStore. A DiskStore would fsync every Put and Link, and
// on a virtual disk shared with other tenants that made the cold pass swing
// by a factor of two between runs, too much for any bound.
func runStudy(cfg config, rep *report) error {
	base, err := experiments.Default()
	if err != nil {
		return err
	}
	names := base.Names()
	roots := make([]int64, studyK)
	for i := range roots {
		roots[i] = cfg.seed*studyK + int64(i)
	}
	items := len(roots) * len(names)
	rep.inputs["K"] = studyK
	rep.inputs["experiments"] = len(names)
	rep.inputs["roots"] = roots

	var golden [][]byte // cold Result JSON of the first iteration
	var iters []studyIter
	// Traced runs alternate an untraced reference pass with a traced one.
	var refWall, trWall, attributed []float64
	var ref memDelta
	var tracedPasses int
	var trEnvs []*exp.Env

	minIter := 1
	if cfg.trace {
		minIter = 2
	}
	for it := 0; it < minIter || time.Now().Before(cfg.deadline); it++ {
		mem := cas.NewMemStore()
		reg := base
		var store cas.Store = mem
		var tr *tracer
		if cfg.trace && it%2 == 1 {
			tr = rep.tr
			store = timedStore{mem, tr}
			if reg, err = tracedRegistry(base, tr, true); err != nil {
				return err
			}
		}

		mark := 0
		if tr != nil {
			mark = tr.mark()
		}
		win := openWindow()
		m0 := readMem()
		c, err := runStudyPass(reg, names, roots, store, tr, rep)
		if err != nil {
			return err
		}
		d := diffMem(m0, readMem())
		warmMark := 0
		if tr != nil {
			warmMark = tr.mark()
		}
		w, err := runStudyPass(reg, names, roots, store, tr, rep)
		if err != nil {
			return err
		}

		// Output checks: warm equals cold, and every iteration equals the
		// first, byte for byte per (seed, experiment).
		var blob [][]byte
		for r := range c.results {
			for j := range names {
				cj, err1 := resultJSON(c.results[r][j])
				wj, err2 := resultJSON(w.results[r][j])
				rep.op(err1 == nil && err2 == nil && bytes.Equal(cj, wj) && w.results[r][j].Provenance.Cached,
					"study: %s seed %d: warm result differs from cold", names[j], roots[r])
				blob = append(blob, cj)
			}
		}
		if golden == nil {
			golden = blob
			sealAndVerify(reg, c.envs[0], c.results[0], rep)
		} else {
			for i := range blob {
				rep.op(bytes.Equal(blob[i], golden[i]), "study: result %d differs between iterations", i)
			}
		}

		switch {
		case !cfg.trace:
			lat, rate := studyClosed(reg, names, roots, store, cfg.nproc, studyClosedLoop, rep)
			iters = append(iters, studyIter{
				cold: float64(items) / c.wall.Seconds(), warm: float64(items) / w.wall.Seconds(),
				alloc: float64(d.bytes) / float64(items), rate: rate,
				jobLat: c.lat, reqLat: lat, win: win.close(),
			})
			if it == 0 {
				firstPeakRSS(rep)
			}
		case tr == nil:
			refWall = append(refWall, c.wall.Seconds())
			if len(refWall) == 1 {
				ref = d
			}
		default:
			tracedPasses++
			trWall = append(trWall, c.wall.Seconds())
			coldSpans := tr.snapshot()[mark:warmMark]
			attributed = append(attributed, attributedShare(coldSpans, tr.at(c.start), tr.at(c.start.Add(c.wall))))
			trEnvs = append(trEnvs, c.envs...)
			trEnvs = append(trEnvs, w.envs...)
		}
	}
	rep.inputs["iterations"] = len(iters) + len(refWall) + len(trWall)
	if !cfg.trace {
		wins := make([]window, len(iters))
		for i, it := range iters {
			wins[i] = it.win
		}
		keep := calm(rep, "iteration", wins, cfg.nproc)
		var cold, warm, allocs, closedRate, jobLat, reqLat []float64
		for i, it := range iters {
			if keep[i] {
				cold, warm = append(cold, it.cold), append(warm, it.warm)
				allocs, closedRate = append(allocs, it.alloc), append(closedRate, it.rate)
				jobLat, reqLat = append(jobLat, it.jobLat...), append(reqLat, it.reqLat...)
			}
		}
		rep.med("cold_items_per_s", "items/s", cold)
		rep.med("warm_items_per_s", "items/s", warm)
		rep.med("alloc_bytes_per_item", "B", allocs)
		rep.med("req_per_s", "req/s", closedRate)
		rep.set("req_p50_ms", "ms", median(reqLat), len(reqLat))
		rep.tail("req_p99_ms", reqLat, 99)
		rep.set("job_p50_ms", "ms", median(jobLat), len(jobLat))
		rep.tail("job_p99_ms", jobLat, 99)
		return nil
	}
	if tracedPasses == 0 {
		return fmt.Errorf("study: --seconds %d left no time for a traced pass", cfg.seconds)
	}
	rep.setRuntime(ref, items)
	rep.set("trace.overhead_ratio", "ratio", median(trWall)/median(refWall), len(trWall))
	rep.set("trace.attributed_ratio", "ratio", median(attributed), len(attributed))
	layerMetrics(rep, rep.tr.snapshot(), tracedPasses)
	programCounters(rep, func(n string) int64 { return counterSum(trEnvs, n) }, tracedPasses)
	return nil
}
