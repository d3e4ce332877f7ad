package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/experiments"
	"repro/internal/runpack"
)

func TestTracedRegistryIsTransparent(t *testing.T) {
	base, err := experiments.Default()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	wrapped, err := tracedRegistry(base, tr, true)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Name() != base.Name() || !reflect.DeepEqual(wrapped.Names(), base.Names()) {
		t.Fatalf("wrapped registry %q %v, want %q %v", wrapped.Name(), wrapped.Names(), base.Name(), base.Names())
	}
	for _, e := range base.Experiments() {
		w, _ := wrapped.Get(e.Spec.Name)
		fa, _ := e.Spec.Fingerprint()
		fb, _ := w.Spec.Fingerprint()
		if fa != fb {
			t.Errorf("%s: fingerprint %s, want %s", e.Spec.Name, fb, fa)
		}
	}
	// Bodies: every experiment cheap enough for a unit test, run through
	// both registries over identical environments.
	key := runpack.DevKey()
	for _, name := range servedNames(base) {
		envA := &exp.Env{Seed: 7, Clock: clock.NewSim(7), Store: cas.NewMemStore()}
		envB := &exp.Env{Seed: 7, Clock: clock.NewSim(7), Store: cas.NewMemStore()}
		ra, err := base.Run(context.Background(), envA, name)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := wrapped.Run(context.Background(), envB, name)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(ra)
		jb, _ := json.Marshal(rb)
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: wrapped Result differs", name)
		}
		pa, err := base.Seal(ra, envA, key)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := wrapped.Seal(rb, envB, key)
		if err != nil {
			t.Fatal(err)
		}
		if pa.ID != pb.ID {
			t.Errorf("%s: runpack ID %s, want %s", name, pb.ID, pa.ID)
		}
	}
	bodies := 0
	for _, s := range tr.snapshot() {
		if s.Name == "exp.body" {
			bodies++
		}
	}
	if want := len(servedNames(base)); bodies != want {
		t.Errorf("%d body spans, want %d", bodies, want)
	}
}

func TestTimedStoreIsTransparent(t *testing.T) {
	tr := newTracer()
	plain, inner := cas.NewMemStore(), cas.NewMemStore()
	timed := timedStore{inner, tr}
	for _, st := range []cas.Store{plain, timed} {
		a, err := st.Put([]byte("alpha"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Put([]byte("alpha")); err != nil {
			t.Fatal(err)
		}
		if err := st.Link(cas.KeyOf([]byte("name")), a); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []cas.Key{cas.KeyOf([]byte("name")), cas.KeyOf([]byte("absent"))} {
		ka, oka, _ := plain.Resolve(name)
		kb, okb, _ := timed.Resolve(name)
		if ka != kb || oka != okb {
			t.Errorf("Resolve(%s) = %s %v, want %s %v", name.Short(), kb, okb, ka, oka)
		}
		da, oka, _ := plain.Get(ka)
		db, okb, _ := timed.Get(kb)
		if !bytes.Equal(da, db) || oka != okb {
			t.Errorf("Get(%s) = %q %v, want %q %v", ka.Short(), db, okb, da, oka)
		}
	}
	ka, _ := plain.Keys()
	kb, _ := timed.Keys()
	la, _ := plain.Links()
	lb, _ := timed.Links()
	ba, _ := plain.Bytes()
	bb, _ := timed.Bytes()
	if !reflect.DeepEqual(ka, kb) || !reflect.DeepEqual(la, lb) || ba != bb {
		t.Errorf("timed store listing differs: %v %v %d, want %v %v %d", kb, lb, bb, ka, la, ba)
	}

	got := map[string]int64{}
	calls := map[string]int{}
	for _, s := range tr.snapshot() {
		if s.End < s.Start {
			t.Errorf("span %s not closed", s.Name)
		}
		got[s.Name] += s.N
		calls[s.Name]++
	}
	want := map[string]int{"cas.put": 2, "cas.link": 1, "cas.resolve": 2, "cas.get": 2}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("span calls %v, want %v", calls, want)
	}
	if got["cas.put"] != 10 || got["cas.get"] != 5 || got["cas.resolve"] != 1 {
		t.Errorf("span sizes %v, want put 10 B, get 5 B, one resolve found", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "exp.run", Parent: -1, Start: 0, End: 100},
		{Name: "exp.body", Parent: 0, Start: 10, End: 60},
		{Name: "cas.put", Parent: 0, Start: 50, End: 70},   // overlaps the body
		{Name: "cas.get", Parent: 0, Start: 65, End: 80},   // overlaps the put
		{Name: "cas.put", Parent: 1, Start: 20, End: 30},   // grandchild
		{Name: "cas.link", Parent: 0, Start: 95, End: 130}, // runs past the parent
	}
	self := selfTimes(spans)
	// Children of span 0 cover [10,80) and [95,100): 75 of 100.
	if want := []int64{25, 40, 20, 15, 10, 35}; !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestAttributedShareLeavesRootTimeOut(t *testing.T) {
	spans := []span{
		{Name: "exp.run", Parent: -1, Start: 0, End: 100}, // the benchmark's own wrapper
		{Name: "exp.body", Parent: 0, Start: 10, End: 60},
		{Name: "cas.put", Parent: 0, Start: 50, End: 70}, // overlaps the body
		{Name: "cas.get", Parent: 0, Start: 65, End: 80}, // overlaps the put
		{Name: "client", Parent: -1, Start: 0, End: 100},
	}
	// Layer spans cover [10,80): the 30 units only the roots cover stay
	// unattributed.
	if got := attributedShare(spans, 0, 100); got != 0.7 {
		t.Errorf("attributed share %v, want 0.7", got)
	}
	// More unattributed time in the window lowers the share.
	if got := attributedShare(spans, 0, 140); got != 0.5 {
		t.Errorf("attributed share over a longer window %v, want 0.5", got)
	}
	if got := attributedShare(spans[:1], 0, 100); got != 0 {
		t.Errorf("a root span alone attributes %v, want 0", got)
	}
}

func TestPlanFixesTheMix(t *testing.T) {
	names := make([]string, 36)
	for i := range names {
		names[i] = fmt.Sprintf("e%02d", i)
	}
	w := mixWeights()
	p := plan(rand.New(rand.NewSource(3)), 2, names, 0)
	q := plan(rand.New(rand.NewSource(4)), 2, names, 0)
	count := func(p []planned) (n [nKinds]int, fresh map[string]int) {
		fresh = map[string]int{}
		for i, r := range p {
			n[r.k]++
			if r.k == kFresh {
				fresh[r.name]++
			}
			if i > 0 && r.due < p[i-1].due {
				t.Fatalf("request %d due before its predecessor", i)
			}
		}
		return n, fresh
	}
	np, fp := count(p)
	nq, _ := count(q)
	for k := kind(0); k < kMetrics; k++ {
		if np[k] != 2*9*w[k] || nq[k] != np[k] {
			t.Errorf("kind %d: %d and %d requests, want %d", k, np[k], nq[k], 2*9*w[k])
		}
	}
	for _, n := range names {
		if fp[n] != 2 {
			t.Errorf("%s submitted %d times, want 2", n, fp[n])
		}
	}
	if w[kStatus] != 60 || w[kArtifact] != 30 || w[kFresh]+w[kRepeat] != 5 {
		t.Errorf("mix %v does not follow the standard load profile", w)
	}
}

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		v, used   float64
		wantBeyon int
	}{
		{1000, 990, 99, 10},  // ten samples lie beyond p99
		{2000, 1980, 99, 20}, // more than enough
		{500, 490, 98, 10},   // p99 would leave five: lowered to p98
		{100, 90, 90, 10},    // lowered to p90
		{15, 8, 50, 7},       // nothing at or above the median qualifies
	} {
		v, used := tailPercentile(seq(c.n), 99)
		if v != c.v || used != c.used {
			t.Errorf("n=%d: p99 rule gave %v at p%v, want %v at p%v", c.n, v, used, c.v, c.used)
		}
		if beyond := c.n - int(v); beyond != c.wantBeyon {
			t.Errorf("n=%d: %d samples beyond, want %d", c.n, beyond, c.wantBeyon)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two values %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestOpenLoopCountsLagFromDueTime(t *testing.T) {
	var calls atomic.Int32
	stall := 60 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	c := newClient(srv.URL, "", newBook(), nil)
	// One client, two scrapes due 1 ms apart: the second is due while the
	// first is stalled, so it goes out late.
	p := []planned{{due: 0, k: kMetrics}, {due: time.Millisecond, k: kMetrics}}
	recs := openLoop([]*client{c}, p)
	if len(recs) != 2 {
		t.Fatalf("%d requests sent, want 2", len(recs))
	}
	lat, lag := reqLatencies(recs)
	if lag[1] < ms(stall)/2 {
		t.Errorf("second request lagged %.1f ms, want about %v", lag[1], stall)
	}
	if sendToEnd := ms(recs[1].out.end.Sub(recs[1].send)); lat[1] < lag[1]+sendToEnd-0.001 {
		t.Errorf("latency %.3f ms does not include the %.3f ms lag", lat[1], lag[1])
	}
	if lat[1] < ms(stall)/2 {
		t.Errorf("latency of the delayed request %.1f ms, want at least half the %v stall", lat[1], stall)
	}
}

func TestStudyEnvMatchesCLI(t *testing.T) {
	// The study workload must build the Env smsreport builds.
	want, err := experiments.CLIOptions{Seed: 5}.Env()
	if err != nil {
		t.Fatal(err)
	}
	got := studyEnv(5, nil)
	if got.Seed != want.Seed || !got.Clk().Now().Equal(want.Clk().Now()) || got.Par != nil || got.Metrics == nil {
		t.Errorf("study env differs from the CLI's")
	}
}
