package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/exp"
	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/runpack"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
)

// openRate is the open loop's offered rate. At twice that, the daemon's
// p99 on a 2-core machine no longer repeats from run to run.
const openRate = 300

// scrapeEvery is the open loop's /metrics scrape interval. It is an
// assumption: Prometheus scrapes every 15 s in its example configuration,
// and at that interval a run of a few seconds would time no scrape at all.
const scrapeEvery = time.Second

// Request kinds of the open loop.
type kind int

const (
	kFresh       kind = iota // submit a (name, seed) never seen: the body runs
	kRepeat                  // re-submit a known (name, seed): dedup
	kStatus                  // poll a finished job
	kArtifact                // fetch an artifact of a finished job
	kRunpack                 // fetch the sealed runpack of a finished job
	kList                    // list experiments and jobs
	kBadJSON                 // submit a malformed body
	kBadName                 // submit an unknown experiment
	kBadID                   // poll an unknown submission
	kBadArtifact             // fetch an unknown artifact of a finished job
	kMetrics                 // scrape /metrics, on the scrape clock
	nKinds
)

var kindEndpoint = [nKinds]string{"submit", "submit", "status", "artifact", "runpack", "list", "bad", "bad", "bad", "bad", "metrics"}

// endpointList are the endpoints the traced run reports handler times for.
var endpointList = []string{"submit", "status", "artifact", "runpack", "metrics"}

// mixWeights is the open loop's mix of Poisson arrivals, taken from the
// daemon's standard load profile (loadgen.DefaultProfile: submit 5,
// status 60, artifact 30, list 1, bad 4, the bad ones rotating through
// four malformed cases). That profile only re-submits known jobs; here
// four submissions in five are fresh, so bodies run, and one in five
// repeats a known (name, seed). Runpacks, which the profile lacks, are
// fetched at the rate of fresh submissions, as if each new job's runpack
// were fetched once. Both are assumptions; the profile has no basis for
// them.
func mixWeights() [nKinds]int {
	p := loadgen.DefaultProfile(0, 0, nil)
	var w [nKinds]int
	w[kRepeat] = p.SubmitWeight / 5
	w[kFresh] = p.SubmitWeight - w[kRepeat]
	w[kStatus], w[kArtifact], w[kList] = p.StatusWeight, p.ArtifactWeight, p.ListWeight
	for _, k := range []kind{kBadJSON, kBadName, kBadID, kBadArtifact} {
		w[k] = p.BadWeight / 4
	}
	w[kRunpack] = w[kFresh]
	return w
}

// servedNames are the experiments submissions draw from: every one except
// the generated families and the corpus classification, whose bodies take
// hundreds of milliseconds and would turn the request mix into a batch job.
func servedNames(reg *exp.Registry) []string {
	var out []string
	for _, n := range reg.Names() {
		if !strings.HasPrefix(n, "scengen/") && n != "corpus/classify" {
			out = append(out, n)
		}
	}
	return out
}

// daemon is smsd behind a loopback listener.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startDaemon starts smsd over reg with nproc workers; wrap, when set,
// decorates the daemon's handler.
func startDaemon(reg *exp.Registry, store cas.Store, nproc int, wrap ...func(http.Handler) http.Handler) (*daemon, error) {
	srv, err := serve.NewServer(serve.Config{
		Registry: reg, Store: store, Seed: 1, Workers: nproc,
		Par: []par.Option{par.Workers(nproc)},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv
	for _, w := range wrap {
		h = w(h)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener, waits for the serving goroutine and drains the
// worker pool.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Close()
	return err
}

// job is the client's view of one submission.
type job struct {
	id, name  string
	seed      int64
	due       time.Time // open-loop submissions only
	done      bool
	artifacts []string
}

// book is the client-side job table the load generator picks targets from.
// A job enters it once the daemon has accepted the submission.
type book struct {
	mu      sync.Mutex
	byID    map[string]*job
	all     []*job
	done    []*job
	withArt []*job // finished jobs with at least one artifact
}

func newBook() *book { return &book{byID: map[string]*job{}} }

func (b *book) add(j *job) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.byID[j.id]; dup {
		return
	}
	b.byID[j.id] = j
	b.all = append(b.all, j)
}

// pick returns the job at fraction u of list.
func (b *book) pick(u float64, list *[]*job) *job {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(*list) == 0 {
		return nil
	}
	return (*list)[int(u*float64(len(*list)))%len(*list)]
}

// observe applies a status answer.
func (b *book) observe(j *job, st *serve.StatusResponse) {
	if st.State != serve.StateDone {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if j.done {
		return
	}
	j.done = true
	j.artifacts = st.Artifacts
	b.done = append(b.done, j)
	if len(j.artifacts) > 0 {
		b.withArt = append(b.withArt, j)
	}
}

// client is one load-generating goroutine's connection to the daemon.
type client struct {
	hc     *http.Client
	base   string
	pubkey string
	bk     *book
	tr     *tracer
	// later, when not nil, collects the payload checks (artifact digests,
	// runpack verification) to run after the measured phase, so that their
	// allocations stay out of the daemon's figure.
	later *[]payload
}

func newClient(base, pubkey string, bk *book, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, base: base, pubkey: pubkey, bk: bk, tr: tr}
}

// outcome is the result of one request.
type outcome struct {
	ep         string
	code       int
	err        error
	start, end time.Time
	body       int
}

// expected are the status codes each request kind may answer with and
// still count as served; any other code, 429 and 5xx included, is a
// failed operation.
var expected = [nKinds]int{
	kFresh: http.StatusAccepted, kRepeat: http.StatusOK, kStatus: http.StatusOK,
	kArtifact: http.StatusOK, kRunpack: http.StatusOK, kList: http.StatusOK,
	kBadJSON: http.StatusBadRequest, kBadName: http.StatusNotFound, kBadID: http.StatusNotFound,
	kBadArtifact: http.StatusNotFound, kMetrics: http.StatusOK,
}

// needsJob reports whether a request of kind k is about a known job.
func needsJob(k kind) bool {
	switch k {
	case kList, kBadJSON, kBadName, kBadID, kMetrics:
		return false
	}
	return true
}

// do sends one request of kind k about j (nil for kinds that name no
// job), checks the answer, and updates the job book.
func (c *client) do(k kind, j *job) outcome {
	ep := kindEndpoint[k]
	if needsJob(k) && j == nil {
		now := time.Now()
		return outcome{ep: ep, err: errors.New("no job to address"), start: now, end: now}
	}
	var req *http.Request
	var err error
	switch k {
	case kFresh, kRepeat:
		body, _ := json.Marshal(serve.SubmitRequest{Name: j.name, Seed: &j.seed}) // a string and an int64 always encode
		req, err = http.NewRequest(http.MethodPost, c.base+"/experiments", bytes.NewReader(body))
	case kStatus:
		req, err = http.NewRequest(http.MethodGet, c.base+"/experiments/"+j.id, nil)
	case kArtifact:
		req, err = http.NewRequest(http.MethodGet, c.base+"/experiments/"+j.id+"/artifacts/"+url.PathEscape(j.artifacts[0]), nil)
	case kRunpack:
		req, err = http.NewRequest(http.MethodGet, c.base+"/experiments/"+j.id+"/runpack", nil)
	case kList:
		req, err = http.NewRequest(http.MethodGet, c.base+"/experiments", nil)
	case kBadJSON:
		req, err = http.NewRequest(http.MethodPost, c.base+"/experiments", strings.NewReader(`{"name": nope`))
	case kBadName:
		req, err = http.NewRequest(http.MethodPost, c.base+"/experiments", strings.NewReader(`{"name":"no/such/experiment"}`))
	case kBadID:
		req, err = http.NewRequest(http.MethodGet, c.base+"/experiments/deadbeefdeadbeef", nil)
	case kBadArtifact:
		req, err = http.NewRequest(http.MethodGet, c.base+"/experiments/"+j.id+"/artifacts/no-such-artifact", nil)
	default:
		req, err = http.NewRequest(http.MethodGet, c.base+"/metrics", nil)
	}
	if err != nil {
		return outcome{ep: ep, err: err, start: time.Now(), end: time.Now()}
	}
	var sp int32 = -1
	if c.tr != nil {
		id := ""
		if j != nil {
			id = j.id
		}
		sp = c.tr.begin("client", ep, id, -1)
		req.Header.Set("X-Trace-Id", id)
		req.Header.Set("X-Trace-Parent", strconv.Itoa(int(sp)))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	if c.tr != nil {
		c.tr.finish(sp, int64(len(data)))
	}
	out := outcome{ep: ep, start: start, end: end, body: len(data)}
	if err != nil {
		out.err = err
		return out
	}
	out.code = resp.StatusCode
	if resp.StatusCode != expected[k] {
		out.err = fmt.Errorf("%s answered %d, want %d: %.200s", ep, resp.StatusCode, expected[k], data)
		return out
	}
	switch k {
	case kFresh, kRepeat, kStatus:
		out.err = c.checkStatus(k, j, data)
	case kList:
		var l struct {
			Experiments []string `json:"experiments"`
		}
		if err := json.Unmarshal(data, &l); err != nil || len(l.Experiments) == 0 {
			out.err = fmt.Errorf("list body lists no experiments (%v)", err)
		}
	case kArtifact, kRunpack:
		pl := payload{k: k, j: j, h: resp.Header, data: data}
		if c.later != nil {
			*c.later = append(*c.later, pl)
		} else {
			out.err = pl.verify(c.pubkey)
		}
	}
	return out
}

// checkStatus verifies a status answer (it names the job and the job has
// not failed) and records it in the job book.
func (c *client) checkStatus(k kind, j *job, data []byte) error {
	var st serve.StatusResponse
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("status body: %w", err)
	}
	if st.ID != j.id || st.ID != serve.JobID(j.name, j.seed) {
		return fmt.Errorf("status names job %s, want %s", st.ID, j.id)
	}
	if st.State == serve.StateFailed {
		return fmt.Errorf("job %s (%s) failed: %s", j.id, j.name, st.Error)
	}
	if k == kFresh {
		c.bk.add(j)
	}
	c.bk.observe(j, &st)
	return nil
}

// payload is a served artifact or runpack, kept for its check.
type payload struct {
	k    kind
	j    *job
	h    http.Header
	data []byte
}

// verify checks a payload: an artifact hashes to its digest header; a
// runpack carries the daemon's announced key, decodes, and verifies
// offline against that key.
func (p payload) verify(pubkey string) error {
	if p.k == kArtifact {
		sum := sha256.Sum256(p.data)
		if got := p.h.Get("X-Content-Digest"); got != "sha256:"+hex.EncodeToString(sum[:]) {
			return fmt.Errorf("artifact %s/%s does not hash to its digest header %q", p.j.id, p.j.artifacts[0], got)
		}
		return nil
	}
	if got := p.h.Get("X-Runpack-Pubkey"); got != pubkey {
		return fmt.Errorf("runpack signed under key %q, daemon announced %q", got, pubkey)
	}
	pack, err := runpack.DecodeBundle(p.data)
	if err == nil {
		err = pack.Verify(runpack.VerifyOpts{PubKey: pubkey})
	}
	if err != nil {
		return fmt.Errorf("runpack %s: %w", p.j.id, err)
	}
	return nil
}

// fetch is the fetch step after a job finished: its first artifact, or its
// runpack when it has none.
func fetchKind(j *job) kind {
	if len(j.artifacts) > 0 {
		return kArtifact
	}
	return kRunpack
}

// planned is one open-loop request, drawn from the seed before the run.
type planned struct {
	due  time.Duration // since the loop's start
	k    kind
	u    float64 // target choice
	name string  // kFresh only
	seed int64   // kFresh only
}

// plan draws decks of open-loop requests. A deck holds every kind of the
// mix exactly in proportion to its weight, as many times over as it takes
// to submit every served experiment once, in an order shuffled by the
// seed; so seeds differ in order and timing but not in the mix of
// requests and bodies. Arrivals are Poisson, and /metrics scrapes come on
// their own clock, every scrapeEvery, for an offered rate of openRate.
func plan(rng *rand.Rand, decks int, names []string, seedBase int64) []planned {
	w := mixWeights()
	reps := max(1, len(names)/w[kFresh])
	var deck []kind
	for k, n := range w {
		for i := 0; i < n*reps; i++ {
			deck = append(deck, kind(k))
		}
	}
	order := append([]string(nil), names...)
	rate := openRate - 1/scrapeEvery.Seconds()
	var out []planned
	var t float64
	fresh := 0
	for d := 0; d < decks; d++ {
		rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		for _, k := range deck {
			t += rng.ExpFloat64() / rate
			p := planned{due: time.Duration(t * float64(time.Second)), k: k, u: rng.Float64()}
			if k == kFresh {
				if fresh%len(order) == 0 {
					rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
				}
				p.name = order[fresh%len(order)]
				p.seed = seedBase + int64(len(out))
				fresh++
			}
			out = append(out, p)
		}
	}
	end := time.Duration(t * float64(time.Second))
	for due := scrapeEvery / 2; due < end; due += scrapeEvery {
		out = append(out, planned{due: due, k: kMetrics})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	return out
}

// sent is the record of one open-loop request.
type sent struct {
	ep        string
	due, send time.Time
	out       outcome
}

// waitUntil sleeps to just before t, then yields the processor until t:
// the runtime's timers on Linux overshoot by about a millisecond, which
// would otherwise show up as generator lag in every request.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoop sends the planned requests at their due times from len(cs)
// clients. Which requests there are, and when each is due, is fixed by
// the plan, not by how fast the daemon answers. A request whose clients
// are all busy at its due time goes out late; its latency still runs from
// the due time.
func openLoop(cs []*client, p []planned) []sent {
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	recs := make([][]sent, len(cs))
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p) {
					return
				}
				r := sent{due: start.Add(p[i].due)}
				waitUntil(r.due)
				j := c.target(p[i], r.due)
				r.ep, r.send = kindEndpoint[p[i].k], time.Now()
				r.out = c.do(p[i].k, j)
				recs[ci] = append(recs[ci], r)
			}
		}(ci, c)
	}
	wg.Wait()
	var all []sent
	for _, r := range recs {
		all = append(all, r...)
	}
	return all
}

// target resolves a planned request's job from the job book. Every
// request but a fresh submission addresses a job that finished before the
// loop began, as loadgen.DefaultProfile's steady state does: the open loop
// never polls its own fresh jobs, so the daemon's speed cannot change
// which answers it sends, or their size.
func (c *client) target(p planned, due time.Time) *job {
	b := c.bk
	switch p.k {
	case kFresh:
		return &job{id: serve.JobID(p.name, p.seed), name: p.name, seed: p.seed, due: due}
	case kStatus, kRepeat, kRunpack:
		return b.pick(p.u, &b.done)
	case kArtifact, kBadArtifact:
		return b.pick(p.u, &b.withArt)
	}
	return nil
}

// awaitJob submits j and polls it to a terminal state, reporting every
// request; it returns the number of requests sent.
func (c *client) awaitJob(j *job, rep func(outcome)) int {
	o := c.do(kFresh, j)
	rep(o)
	if o.err != nil {
		return 1
	}
	return 1 + c.pollDone(j, rep)
}

// pollDone polls j until the client has seen it finish, reporting every
// request; it returns the number of requests sent.
func (c *client) pollDone(j *job, rep func(outcome)) int {
	start := time.Now()
	n := 0
	for !c.isDone(j) {
		if time.Since(start) > 10*time.Second {
			rep(outcome{ep: "status", err: fmt.Errorf("job %s (%s) unfinished after 10s", j.id, j.name)})
			break
		}
		o := c.do(kStatus, j)
		rep(o)
		n++
		if o.err != nil {
			break
		}
	}
	return n
}

func (c *client) isDone(j *job) bool {
	c.bk.mu.Lock()
	defer c.bk.mu.Unlock()
	return j.done
}

// closedResult is what a closed loop measured.
type closedResult struct {
	coldJobs, warmJobs, requests int
	coldWall, warmWall           time.Duration
	reqLat, jobLat               []float64 // ms
	win                          window
}

// closedLoop runs len(cs) clients back to back for cold+warm: in the cold
// half each submits fresh jobs, polls each to completion and fetches its
// output; in the warm half each re-submits its own finished jobs (dedup
// hits whose answer is already terminal) and fetches again.
func closedLoop(cs []*client, names []string, seedBase int64, cold, warm time.Duration, rep func(outcome)) closedResult {
	type tally struct{ cold, warm, reqs int }
	tallies := make([]tally, len(cs))
	var res closedResult
	var mu sync.Mutex
	report := func(o outcome) {
		mu.Lock()
		rep(o)
		if o.err == nil {
			res.reqLat = append(res.reqLat, ms(o.end.Sub(o.start)))
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	mine := make([][]*job, len(cs))
	start := time.Now()
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for k := 0; time.Since(start) < cold; k++ {
				seed := seedBase + int64(ci)*100_000 + int64(k)
				name := names[(k*len(cs)+ci)%len(names)]
				j := &job{id: serve.JobID(name, seed), name: name, seed: seed}
				t0 := time.Now()
				tallies[ci].reqs += c.awaitJob(j, report)
				if c.isDone(j) {
					mu.Lock()
					res.jobLat = append(res.jobLat, ms(time.Since(t0)))
					mu.Unlock()
					report(c.do(fetchKind(j), j))
					tallies[ci].reqs++
					tallies[ci].cold++
					mine[ci] = append(mine[ci], j)
				}
			}
		}(ci, c)
	}
	wg.Wait()
	res.coldWall = time.Since(start)
	start = time.Now()
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for k := 0; time.Since(start) < warm && len(mine[ci]) > 0; k++ {
				j := mine[ci][k%len(mine[ci])]
				report(c.do(kRepeat, j))
				report(c.do(fetchKind(j), j))
				tallies[ci].reqs += 2
				tallies[ci].warm++
			}
		}(ci, c)
	}
	wg.Wait()
	res.warmWall = time.Since(start)
	for _, t := range tallies {
		res.coldJobs += t.cold
		res.warmJobs += t.warm
		res.requests += t.reqs
	}
	return res
}

// handlerSpans is the tracing middleware: one "serve.handler" span per
// request, a child of the client span named in X-Trace-Parent and carrying
// the job ID from X-Trace-Id.
func handlerSpans(tr *tracer) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent := int32(-1)
			if p, err := strconv.Atoi(r.Header.Get("X-Trace-Parent")); err == nil && p >= 0 {
				parent = int32(p)
			}
			i := tr.begin("serve.handler", endpointOf(r), r.Header.Get("X-Trace-Id"), parent)
			next.ServeHTTP(w, r)
			tr.finish(i, 0)
		})
	}
}

// endpointOf names the smsd endpoint a request is routed to.
func endpointOf(r *http.Request) string {
	p := strings.Trim(r.URL.Path, "/")
	switch {
	case p == "metrics":
		return "metrics"
	case p == "experiments" && r.Method == http.MethodPost:
		return "submit"
	case strings.Contains(p, "/artifacts/"):
		return "artifact"
	case strings.HasSuffix(p, "/runpack"):
		return "runpack"
	case strings.HasPrefix(p, "experiments/"):
		return "status"
	}
	return "other"
}

// serveRun is one daemon's session: warm-up, then the open loop and/or the
// closed loop.
type serveRun struct {
	d      *daemon
	bk     *book
	cs     []*client
	closed []closedResult

	open               []sent
	planned            int      // open-loop requests the plan held
	openMem            memDelta // allocations while the open loop ran
	openStart, openEnd time.Time
}

// startServeRun starts a daemon, connects nproc clients and runs one job
// of every served experiment to completion, so fetches have targets.
func startServeRun(cfg config, reg *exp.Registry, names []string, tr *tracer, rep *report) (*serveRun, error) {
	var store cas.Store = cas.NewMemStore()
	var wrap []func(http.Handler) http.Handler
	if tr != nil {
		store = timedStore{store, tr}
		wrap = append(wrap, handlerSpans(tr))
	}
	d, err := startDaemon(reg, store, cfg.nproc, wrap...)
	if err != nil {
		return nil, err
	}
	s := &serveRun{d: d, bk: newBook()}
	for i := 0; i < cfg.nproc; i++ {
		s.cs = append(s.cs, newClient(d.base, d.srv.PackPublicKey(), s.bk, tr))
	}
	for i, n := range names {
		seed := cfg.seed*10_000_000 + int64(i)
		s.cs[0].awaitJob(&job{id: serve.JobID(n, seed), name: n, seed: seed}, rep.outcome)
	}
	return s, nil
}

// outcome counts one request as an attempted operation.
func (r *report) outcome(o outcome) {
	r.op(o.err == nil, "serve: %s: %v", o.ep, o.err)
}

// openDecks is how many decks of the mix the untraced open loop sends in a
// run of the given seconds: about a fifth of the run.
func openDecks(seconds int) int { return max(1, seconds/15) }

// runOpen sends decks of open-loop traffic planned from the seed. The
// payload checks run after the loop, outside its allocation window.
func (s *serveRun) runOpen(cfg config, names []string, decks int, rep *report) {
	p := plan(rand.New(rand.NewSource(cfg.seed)), decks, names, cfg.seed*10_000_000+1_000_000)
	later := make([][]payload, len(s.cs))
	for i, c := range s.cs {
		c.later = &later[i]
	}
	m0 := readMem()
	s.openStart = time.Now()
	s.open = openLoop(s.cs, p)
	s.openEnd = time.Now()
	s.openMem = diffMem(m0, readMem())
	s.planned = len(p)
	for _, c := range s.cs {
		c.later = nil
	}
	for _, r := range s.open {
		rep.outcome(r.out)
	}
	for _, l := range later {
		for _, pl := range l {
			if err := pl.verify(s.d.srv.PackPublicKey()); err != nil {
				rep.fail("serve: %s: %v", kindEndpoint[pl.k], err)
			}
		}
	}
	// The loop never polls its fresh jobs; each must still finish.
	s.bk.mu.Lock()
	jobs := append([]*job(nil), s.bk.all...)
	s.bk.mu.Unlock()
	for _, j := range jobs {
		if !j.due.IsZero() {
			s.cs[0].pollDone(j, rep.outcome)
		}
	}
}

// closedSegments is how many times the closed loop starts over on fresh
// connections. Loopback throughput settles into a different level on each
// set of connections, so its rates are medians over the segments.
const closedSegments = 32

// closedPhase runs the closed loop for d in closedSegments segments, each
// half cold and half warm.
func (s *serveRun) closedPhase(cfg config, names []string, d time.Duration, rep *report) {
	seg := max(d/closedSegments, 100*time.Millisecond)
	for i := 0; i < closedSegments; i++ {
		var cs []*client
		for range s.cs {
			cs = append(cs, newClient(s.d.base, s.d.srv.PackPublicKey(), s.bk, s.cs[0].tr))
		}
		base := cfg.seed*10_000_000 + 5_000_000 + int64(i)*100_000
		win := openWindow()
		res := closedLoop(cs, names, base, seg/2, seg/2, rep.outcome)
		res.win = win.close()
		s.closed = append(s.closed, res)
		for _, c := range cs {
			c.hc.CloseIdleConnections()
		}
	}
}

// closedRates returns cold jobs, warm jobs and requests per second, one
// value per segment keep selects (every segment when keep is nil).
func (s *serveRun) closedRates(keep []bool) (cs, ws, rs []float64) {
	for i, c := range s.closed {
		if keep != nil && !keep[i] {
			continue
		}
		cs = append(cs, float64(c.coldJobs)/c.coldWall.Seconds())
		ws = append(ws, float64(c.warmJobs)/c.warmWall.Seconds())
		rs = append(rs, float64(c.requests)/(c.coldWall+c.warmWall).Seconds())
	}
	return cs, ws, rs
}

func (s *serveRun) stop() error { return s.d.close() }

// reqLatencies returns every served request's latency from its due time,
// and each one's lateness (send − due), in ms.
func reqLatencies(sent []sent) (lat, lag []float64) {
	for _, r := range sent {
		if r.out.err == nil {
			lat = append(lat, ms(r.out.end.Sub(r.due)))
		}
		lag = append(lag, ms(r.send.Sub(r.due)))
	}
	return lat, lag
}

// runServe is the serve workload: smsd over a loopback socket, first an
// open loop at openRate, then a closed loop of nproc clients for the rest
// of the run.
func runServe(cfg config, rep *report) error {
	reg, err := experiments.Default()
	if err != nil {
		return err
	}
	names := servedNames(reg)
	rep.inputs["rate"] = openRate
	rep.inputs["clients"] = cfg.nproc
	rep.inputs["experiments"] = len(names)
	rep.inputs["mix"] = mixWeights()
	if cfg.trace {
		return traceServe(cfg, reg, names, rep)
	}

	s, err := startServeRun(cfg, reg, names, nil, rep)
	if err != nil {
		return err
	}
	s.runOpen(cfg, names, openDecks(cfg.seconds), rep)
	// The daemon keeps every job, so its memory grows with the jobs the
	// closed loop completes, which a faster daemon completes more of. The
	// peak is read where the work done is still the plan's.
	rep.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	s.closedPhase(cfg, names, time.Until(cfg.deadline), rep)
	if err := s.stop(); err != nil {
		return err
	}
	rep.inputs["open_requests"] = s.planned
	// Bytes per planned request: the plan, not the daemon's speed, fixes
	// the divisor.
	rep.set("alloc_bytes_per_item", "B", float64(s.openMem.bytes)/float64(s.planned), s.planned)
	// The open loop's latencies go into the record only: at 300 req/s a
	// 10 ms steal delays several of the few requests in flight, and its
	// tails measured the hypervisor.
	openReq, _ := reqLatencies(s.open)
	rep.set("open.req_p50_ms", "ms", median(openReq), len(openReq))
	rep.tail("open.req_p99_ms", openReq, 99)

	wins := make([]window, len(s.closed))
	for i, c := range s.closed {
		wins[i] = c.win
	}
	keep := calm(rep, "closed", wins, cfg.nproc)
	var lat, jobLat []float64
	for i, c := range s.closed {
		if keep[i] {
			lat, jobLat = append(lat, c.reqLat...), append(jobLat, c.jobLat...)
		}
	}
	rep.set("req_p50_ms", "ms", median(lat), len(lat))
	rep.tail("req_p99_ms", lat, 99)
	rep.set("job_p50_ms", "ms", median(jobLat), len(jobLat))
	rep.tail("job_p99_ms", jobLat, 99)
	cold, warm, rate := s.closedRates(keep)
	rep.med("req_per_s", "req/s", rate)
	rep.med("cold_items_per_s", "items/s", cold)
	rep.med("warm_items_per_s", "items/s", warm)
	return nil
}

// traceServe takes the serve workload's per-layer numbers: an untraced
// daemon runs one deck of the open loop (the runtime metrics) and a short
// closed loop (the reference for the tracing overhead), then a traced
// daemon runs a longer open loop and the same closed loop with client
// spans, handler spans, the timed store and the traced registry.
func traceServe(cfg config, base *exp.Registry, names []string, rep *report) error {
	total := time.Duration(cfg.seconds) * time.Second
	plain, err := startServeRun(cfg, base, names, nil, rep)
	if err != nil {
		return err
	}
	plain.runOpen(cfg, names, 1, rep)
	plain.closedPhase(cfg, names, total/10, rep)
	if err := plain.stop(); err != nil {
		return err
	}
	rep.setRuntime(plain.openMem, plain.planned)

	tr := rep.tr
	reg, err := tracedRegistry(base, tr, false)
	if err != nil {
		return err
	}
	s, err := startServeRun(cfg, reg, names, tr, rep)
	if err != nil {
		return err
	}
	mark := tr.mark()
	s.runOpen(cfg, names, 2*openDecks(cfg.seconds), rep)
	s.closedPhase(cfg, names, total/10, rep)
	if err := s.stop(); err != nil {
		return err
	}
	spans := tr.snapshot()

	_, _, traced := s.closedRates(nil)
	_, _, untraced := plain.closedRates(nil)
	rep.set("trace.overhead_ratio", "ratio", median(untraced)/median(traced), len(traced))
	rep.set("trace.attributed_ratio", "ratio", attributedShare(spans[mark:], tr.at(s.openStart), tr.at(s.openEnd)), len(spans)-mark)
	_, lag := reqLatencies(s.open)
	rep.tail("gen.lag_p99_ms", lag, 99)
	layerMetrics(rep, spans, 1)
	programCounters(rep, s.d.srv.Metrics().Counter, 1)
	serveLayers(rep, spans, s)
	return nil
}

// serveLayers derives the daemon's per-layer metrics from the traced run.
func serveLayers(rep *report, spans []span, s *serveRun) {
	self := selfTimes(spans)
	handler := map[string][]float64{}
	var net, body []float64
	bodyStart := map[string]int64{}
	for i, sp := range spans {
		if sp.End < 0 {
			continue
		}
		switch sp.Name {
		case "serve.handler":
			handler[sp.Detail] = append(handler[sp.Detail], float64(sp.dur())/1e6)
		case "client":
			net = append(net, float64(self[i])/1e6)
		case "exp.body":
			body = append(body, float64(sp.dur())/1e6)
			if _, seen := bodyStart[sp.ID]; !seen {
				bodyStart[sp.ID] = sp.Start
			}
		}
	}
	for _, ep := range endpointList {
		rep.set("serve.handler_p50_ms."+ep, "ms", median(handler[ep]), len(handler[ep]))
		rep.tail("serve.handler_p99_ms."+ep, handler[ep], 99)
	}
	rep.set("serve.net_p50_ms", "ms", median(net), len(net))
	rep.set("serve.body_p50_ms", "ms", median(body), len(body))

	tr := rep.tr
	var wait []float64
	var metricsBytes, scrapes, dedup int
	for _, r := range s.open {
		switch {
		case r.ep == "metrics" && r.out.err == nil:
			metricsBytes += r.out.body
			scrapes++
		case r.ep == "submit" && r.out.code == http.StatusOK:
			dedup++
		}
	}
	s.bk.mu.Lock()
	for _, j := range s.bk.all {
		if start, ok := bodyStart[j.id]; ok && !j.due.IsZero() {
			wait = append(wait, float64(start-tr.at(j.due))/1e6)
		}
	}
	s.bk.mu.Unlock()
	rep.set("serve.queue_wait_p50_ms", "ms", median(wait), len(wait))
	rep.tail("serve.queue_wait_p99_ms", wait, 99)
	if scrapes > 0 {
		rep.set("serve.metrics_bytes", "B", float64(metricsBytes)/float64(scrapes), scrapes)
	}
	met := s.d.srv.Metrics()
	rep.set("serve.accepted", "count", float64(met.Counter("serve.accepted")), 1)
	rep.set("serve.rejected", "count", float64(met.Counter("serve.rejected")), 1)
	rep.set("serve.dedup", "count", float64(dedup), len(s.open))
}
