package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/par"
	"repro/internal/runpack"
	"repro/internal/telemetry"
)

// CLIOptions carries the registry-driven flag set shared by the smsreport,
// wfrun and continuum commands: -list, -run <name|all>, -json, plus the
// ambient knobs (seed, workers, cache dir) each command already exposes.
type CLIOptions struct {
	List    bool   // -list: print every experiment name and description
	Run     string // -run: execute one experiment ("all" = whole registry)
	JSON    bool   // -json: emit the Result as JSON instead of artifacts
	Seed    int64  // root Env seed
	Workers int    // par worker pool bound (0 = default pool)
	Cache   string // cas.DiskStore directory ("" = no memoization)
	// Runpack, with -run, seals every executed experiment into a signed
	// runpack under this directory (one subdirectory per experiment, "/"
	// in names mapped to "__") and appends each export to
	// <dir>/journal.jsonl. Packs are signed with the documented dev key;
	// use cmd/runpack for custom keys.
	Runpack string
	// Metrics, with -run, appends the run's Prometheus-text telemetry
	// (the Env's registry: exp, cas and shard counters) after the output.
	Metrics bool
}

// Env builds the experiment environment the CLI contract promises: a
// simulated clock seeded from the run seed (so provenance and spans are
// pure functions of the flags), telemetry, the worker bound, and the
// optional disk store.
func (o CLIOptions) Env() (*exp.Env, error) {
	sim := clock.NewSim(o.Seed)
	env := &exp.Env{
		Seed:    o.Seed,
		Clock:   sim,
		Metrics: telemetry.NewWithClock(sim),
	}
	if o.Workers > 0 {
		env.Par = []par.Option{par.Workers(o.Workers)}
	}
	if o.Cache != "" {
		store, err := cas.NewDiskStore(o.Cache)
		if err != nil {
			return nil, err
		}
		env.Store = store
	}
	return env, nil
}

// Active reports whether the registry-driven flags were used at all; when
// false the command falls through to its bespoke behaviour.
func (o CLIOptions) Active() bool { return o.List || o.Run != "" }

// RunCLI executes the -list/-run/-json contract against reg and writes the
// outcome to out. Callers should only invoke it when Active().
func RunCLI(reg *exp.Registry, o CLIOptions, out io.Writer) error {
	if o.List {
		return list(reg, out)
	}
	env, err := o.Env()
	if err != nil {
		return err
	}
	if o.Run == "all" {
		err = runAll(reg, env, o, out)
	} else {
		err = runOne(reg, env, o, out)
	}
	if err != nil || !o.Metrics {
		return err
	}
	_, err = fmt.Fprintf(out, "\n# metrics (Prometheus text exposition)\n%s", env.Metrics.PromText())
	return err
}

// runOne executes the single experiment o.Run and emits its Result.
func runOne(reg *exp.Registry, env *exp.Env, o CLIOptions, out io.Writer) error {
	res, err := reg.Run(context.Background(), env, o.Run)
	if err != nil {
		return err
	}
	if o.Runpack != "" {
		if err := exportRunpacks(reg, env, []*exp.Result{res}, o, out); err != nil {
			return err
		}
	}
	return emit(res, o, out)
}

// PackDirName maps an experiment name to its runpack subdirectory: "/" is
// the registry's namespace separator but a path separator on disk.
func PackDirName(experiment string) string {
	return strings.ReplaceAll(experiment, "/", "__")
}

// exportRunpacks seals each Result into a signed runpack under o.Runpack
// and appends one journal line per export to <dir>/journal.jsonl — the
// same crash-tolerant cas.Journal the workflow engine checkpoints with, so
// an interrupted export names exactly the packs that are safely on disk.
func exportRunpacks(reg *exp.Registry, env *exp.Env, results []*exp.Result, o CLIOptions, out io.Writer) error {
	if err := os.MkdirAll(o.Runpack, 0o755); err != nil {
		return err
	}
	jf, err := os.OpenFile(filepath.Join(o.Runpack, "journal.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer jf.Close()
	journal := cas.NewJournal(jf)
	key := runpack.DevKey()
	for _, res := range results {
		pack, err := reg.Seal(res, env, key)
		if err != nil {
			return err
		}
		dir := filepath.Join(o.Runpack, PackDirName(res.Provenance.Experiment))
		if err := pack.WriteDir(dir); err != nil {
			return err
		}
		journal.Append(cas.Entry{
			Run:      "runpack-export",
			Workflow: "runpack",
			Step:     res.Provenance.Experiment,
			Key:      cas.Key(pack.ID),
			Status:   cas.StatusExecuted,
			AtS:      clock.Seconds(env.Clk().Now()),
		})
		if _, err := fmt.Fprintf(out, "runpack %-34s %s\n", res.Provenance.Experiment, pack.ID[:12]); err != nil {
			return err
		}
	}
	return journal.Err()
}

// list prints every registered experiment with its description, aligned.
func list(reg *exp.Registry, out io.Writer) error {
	exps := reg.Experiments()
	width := 0
	for _, e := range exps {
		if len(e.Spec.Name) > width {
			width = len(e.Spec.Name)
		}
	}
	for _, e := range exps {
		if _, err := fmt.Fprintf(out, "%-*s  %s\n", width, e.Spec.Name, e.Desc); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(out, "\n%d experiments (-run <name> to execute, -run all for the full sweep)\n", len(exps))
	return err
}

// runAll sweeps the whole registry and prints one deterministic summary
// line per experiment (or the full JSON results with -json).
func runAll(reg *exp.Registry, env *exp.Env, o CLIOptions, out io.Writer) error {
	results, err := reg.RunAll(context.Background(), env)
	if err != nil {
		return err
	}
	if o.Runpack != "" {
		if err := exportRunpacks(reg, env, results, o, out); err != nil {
			return err
		}
	}
	if o.JSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	for _, r := range results {
		status := "ran"
		if r.Provenance.Cached {
			status = "cached"
		}
		if _, err := fmt.Fprintf(out, "%-34s %-7s seed=%d\n", r.Provenance.Experiment, status, r.Provenance.Seed); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(out, "\n%d experiments ok (hits=%d misses=%d)\n",
		len(results), env.Metrics.Counter("exp.hits"), env.Metrics.Counter("exp.misses"))
	return err
}

// emit writes a single experiment's Result: with -json the whole Result,
// otherwise the artifacts in sorted name order (a lone artifact prints
// bare, so `smsreport -run report.full` emits exactly the report bytes).
func emit(res *exp.Result, o CLIOptions, out io.Writer) error {
	if o.JSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	names := make([]string, 0, len(res.Artifacts))
	for n := range res.Artifacts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if len(names) > 1 {
			if _, err := fmt.Fprintf(out, "# %s\n", n); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(out, res.Artifacts[n]); err != nil {
			return err
		}
	}
	return nil
}
