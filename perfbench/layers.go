package main

// bodyNamespaces are the registry namespaces body time is split by.
var bodyNamespaces = []string{"scengen", "corpus", "scenario", "report", "sweep", "continuum"}

// layerMetrics derives the cas and exp per-layer metrics from spans, as
// totals per traced pass.
func layerMetrics(rep *report, spans []span, passes int) {
	per := float64(passes)
	type op struct{ calls, ns, n int64 }
	ops := map[string]*op{"cas.put": {}, "cas.link": {}, "cas.resolve": {}, "cas.get": {}}
	var bodies, bodyNs, runs, selfNs int64
	nsNs := map[string]int64{}
	nsCalls := map[string]int{}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		switch s.Name {
		case "exp.body":
			bodies++
			bodyNs += s.dur()
			nsNs[namespace(s.Detail)] += s.dur()
			nsCalls[namespace(s.Detail)]++
		case "exp.run":
			runs++
			selfNs += self[i]
		default:
			if o, ok := ops[s.Name]; ok {
				o.calls++
				o.ns += s.dur()
				o.n += s.N
			}
		}
	}
	for _, name := range []string{"cas.put", "cas.link", "cas.resolve", "cas.get"} {
		o := ops[name]
		rep.set(name+".calls", "count", float64(o.calls)/per, int(o.calls))
		rep.set(name+".s", "s", float64(o.ns)/1e9/per, int(o.calls))
	}
	rep.set("cas.put.bytes", "B", float64(ops["cas.put"].n)/per, int(ops["cas.put"].calls))
	rep.set("cas.get.bytes", "B", float64(ops["cas.get"].n)/per, int(ops["cas.get"].calls))
	res := ops["cas.resolve"]
	rep.set("cas.resolve.miss", "count", float64(res.calls-res.n)/per, int(res.calls))

	rep.set("exp.body_s", "s", float64(bodyNs)/1e9/per, int(bodies))
	if runs > 0 {
		rep.set("exp.self_s", "s", float64(selfNs)/1e9/per, int(runs))
	}
	for _, ns := range bodyNamespaces {
		rep.set("body."+ns+"_s", "s", float64(nsNs[ns])/1e9/per, nsCalls[ns])
	}
}

// programCounters reports the program's own telemetry counters, per pass.
func programCounters(rep *report, counter func(string) int64, passes int) {
	per := float64(passes)
	hits, misses := counter("exp.hits"), counter("exp.misses")
	if runs := hits + misses; runs > 0 {
		rep.set("exp.runs", "count", float64(runs)/per, int(runs))
		rep.set("exp.hit_ratio", "ratio", float64(hits)/float64(runs), int(runs))
	}
	if misses > 0 {
		rep.set("exp.result_bytes", "B", float64(counter("exp.bytes"))/float64(misses), int(misses))
	}
	for _, name := range []string{"scengen.configs.exec", "scengen.shards.exec", "scengen.shards.hit",
		"corpus.shards.exec", "corpus.shards.hit"} {
		n := counter(name)
		rep.set(name, "count", float64(n)/per, int(n))
	}
}
