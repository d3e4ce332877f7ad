package main

import (
	"context"
	"strings"

	"repro/internal/exp"
	"repro/internal/serve"
)

// namespace maps an experiment name to the registry namespace its body
// time is reported under (body.<namespace>_s).
func namespace(name string) string {
	switch {
	case strings.HasPrefix(name, "report."):
		return "report"
	case strings.HasPrefix(name, "sweep/"):
		return "sweep"
	}
	ns, _, _ := strings.Cut(name, "/")
	return ns
}

// tracedRegistry re-registers every experiment of base, with the same Spec
// under the same registry name, behind a body that records an "exp.body"
// span. Registry.Run, fingerprints, memo keys and seals are untouched.
//
// With nested set, the caller runs one experiment at a time and store calls
// made inside the body become children of the body span. Without it the
// body span carries the smsd job ID of (name, seed) instead, which is how
// queue wait is joined to the submission that caused it.
func tracedRegistry(base *exp.Registry, tr *tracer, nested bool) (*exp.Registry, error) {
	reg := exp.NewRegistry()
	reg.SetName(base.Name())
	for _, e := range base.Experiments() {
		body := e.Run
		e.Run = func(ctx context.Context, env *exp.Env, spec exp.Spec) (*exp.Result, error) {
			id := ""
			if !nested {
				id = serve.JobID(spec.Name, env.Seed)
			}
			parent := tr.cur.Load()
			i := tr.begin("exp.body", spec.Name, id, parent)
			if nested {
				tr.cur.Store(i)
				defer tr.cur.Store(parent)
			}
			defer tr.finish(i, 0)
			return body(ctx, env, spec)
		}
		if err := reg.Register(e); err != nil {
			return nil, err
		}
	}
	return reg, nil
}
