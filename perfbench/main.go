// Command perfbench is the repository's end-to-end benchmark. It drives the
// public API of the experiment registry, the content-addressed store, the
// corpus classifier and the smsd daemon with inputs generated from a seed,
// checks every output, and prints one JSON result line.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload study|corpus|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics BENCHMARK.json
// lists; with --trace 1 it carries the per-layer metrics, timed from outside
// the program by the decorators in this directory. README.md describes the
// workloads and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// buildDir holds everything the benchmark writes: the binary, the Go build
// cache and the run records.
const buildDir = ".bench_build"

// setupProbes is how many fresh processes measure set-up per run, half
// before the workload and half after it, so the median spans the
// machine's state over the whole run.
const setupProbes = 31

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	nproc    int
	deadline time.Time
}

// metric is one named measurement with its unit and the number of samples
// it summarizes.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Percentile is the percentile actually reported for a tail metric,
	// lowered when fewer than ten samples lie beyond the one named.
	Percentile float64 `json:"percentile,omitempty"`
}

// report collects a run's metrics, operation counts and check failures.
type report struct {
	metrics   map[string]metric
	inputs    map[string]any
	series    map[string][]float64 // per-iteration values behind a median
	attempted int64
	failed    int64
	failures  []string
	tr        *tracer
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, inputs: map[string]any{}, series: map[string][]float64{}}
}

// med records the median of per-iteration values and keeps the values for
// the run record.
func (r *report) med(name, unit string, xs []float64) {
	r.set(name, unit, median(xs), len(xs))
	r.series[name] = xs
}

func (r *report) set(name, unit string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// tail records the nearest-rank percentile p of xs under the percentile
// rule (see tailPercentile).
func (r *report) tail(name string, xs []float64, p float64) {
	v, used := tailPercentile(xs, p)
	r.metrics[name] = metric{Value: v, Unit: "ms", Samples: len(xs), Percentile: used}
}

// op counts one attempted operation or output check; ok=false counts it
// failed and keeps the reason (the first few of each run).
func (r *report) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts a failed operation that was already counted as attempted.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config, *report) error{
	"study":  runStudy,
	"corpus": runCorpus,
	"serve":  runServe,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fset.String("workload", "", "study, corpus or serve")
	seed := fset.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fset.Int("seconds", 20, "how long the run measures")
	trace := fset.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	probe := fset.Bool("setup-probe", false, "measure one set-up of the workload in this process and print its seconds")
	summarize := fset.Bool("summarize", false, "read result lines on stdin and print median and quartiles per metric")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if *summarize {
		return summarizeRuns(os.Stdin, stdout)
	}
	body, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (study, corpus, serve)", *workload)
	}
	if *probe {
		d, err := setupOnce(*workload)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(stdout, strconv.FormatFloat(d.Seconds(), 'g', -1, 64))
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}

	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		nproc: runtime.NumCPU(),
	}
	rep := newReport()
	if cfg.trace {
		rep.tr = newTracer()
	}

	var setup []float64
	if !cfg.trace {
		if setup, err = setupSeconds(cfg.workload, setupProbes/2); err != nil {
			return err
		}
	}
	steal0 := stealSeconds()
	cfg.deadline = time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	if err := body(cfg, rep); err != nil {
		return err
	}
	rep.inputs["steal_s"] = stealSeconds() - steal0
	if !cfg.trace {
		after, err := setupSeconds(cfg.workload, setupProbes-setupProbes/2)
		if err != nil {
			return err
		}
		rep.med("setup_s", "s", append(setup, after...))
	}
	if _, set := rep.metrics["peak_rss_mb"]; !set {
		rep.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	}
	if rep.attempted > 0 {
		rep.set("failed_ratio", "ratio", float64(rep.failed)/float64(rep.attempted), int(rep.attempted))
	}

	out := map[string]metric{}
	for _, m := range want {
		got, ok := rep.metrics[m.Name]
		if !ok && cfg.trace {
			// A layer this workload does not exercise did no work.
			got, ok = metric{Unit: m.Unit}, true
			rep.metrics[m.Name] = got
		}
		switch {
		case !ok:
			return fmt.Errorf("workload %s did not produce metric %s", cfg.workload, m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s: BENCHMARK.json says %s, the workload measured %s", m.Name, m.Unit, got.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is not a number", m.Name)
		}
		out[m.Name] = got
	}
	if err := writeRecord(cfg, rep, stdout); err != nil {
		return err
	}
	return printResult(stdout, rep, out)
}

// printResult writes the result line: exactly correct, attempted, failed
// and metrics (value and unit each).
func printResult(w io.Writer, rep *report, ms map[string]metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(ms))
	for n, m := range ms {
		vals[n] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// benchSpec is the part of BENCHMARK.json the run needs: which metrics to
// print, and their units.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// setupOnce performs the workload's set-up in this process: assemble the
// registry and compile the classifier, and for serve start the daemon
// behind a loopback listener.
func setupOnce(workload string) (time.Duration, error) {
	start := time.Now()
	reg, err := experiments.Default()
	if err != nil {
		return 0, err
	}
	core.Compiled()
	if workload == "serve" {
		d, err := startDaemon(reg, nil, runtime.NumCPU())
		if err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		return elapsed, d.close()
	}
	return time.Since(start), nil
}

// setupSeconds measures set-up in n fresh processes, so each one pays for
// the compile that core.Compiled does once per process.
func setupSeconds(workload string, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--setup-probe", "--workload", workload)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q", b)
		}
		out = append(out, v)
	}
	return out, nil
}

// firstPeakRSS records peak_rss_mb after the first iteration. Later
// iterations repeat the same work, but the run keeps every iteration's
// latency samples, and a faster program runs more iterations; reading the
// peak at the end would report that as memory the program used.
func firstPeakRSS(rep *report) {
	rep.set("peak_rss_mb", "MB", peakRSSMB(), 1)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memDelta is the allocation activity between two MemStats readings.
type memDelta struct {
	bytes, mallocs, gcs uint64
	pauseNs             uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{
		bytes: b.TotalAlloc - a.TotalAlloc, mallocs: b.Mallocs - a.Mallocs,
		gcs: uint64(b.NumGC - a.NumGC), pauseNs: b.PauseTotalNs - a.PauseTotalNs,
	}
}

// setRuntime reports the runtime's allocation and GC activity over a phase
// of items items, measured without tracing.
func (r *report) setRuntime(d memDelta, items int) {
	r.set("gc.cycles", "count", float64(d.gcs), 1)
	r.set("gc.pause_ms", "ms", float64(d.pauseNs)/1e6, 1)
	r.set("mallocs_per_item", "count", float64(d.mallocs)/float64(items), items)
}

// stamp is the environment every record carries.
type stamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Revision   string `json:"revision"`
	Source     string `json:"source_sha256"`
}

func environment() stamp {
	s := stamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: cpuModel(),
		Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, Revision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Revision = kv.Value
			}
		}
	}
	s.Source = sourceDigest()
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the module's Go sources and go.mod, which identifies
// the code under test where no git revision is available.
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeRecord prints the run's full record (environment, inputs, every
// metric with its sample count, check failures) as one JSON line, and
// writes it with the spans of a traced run under buildDir/records.
func writeRecord(cfg config, rep *report, stdout io.Writer) error {
	rec := struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Seconds  int                  `json:"seconds"`
		Trace    bool                 `json:"trace"`
		Env      stamp                `json:"env"`
		Inputs   map[string]any       `json:"inputs"`
		Metrics  map[string]metric    `json:"all_metrics"`
		Series   map[string][]float64 `json:"series,omitempty"`
		Failures []string             `json:"failures,omitempty"`
	}{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, environment(), rep.inputs, rep.metrics, rep.series, rep.failures}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return err
	}
	dir := filepath.Join(buildDir, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, trace)
	if err := os.WriteFile(filepath.Join(dir, name+".json"), append(line, '\n'), 0o644); err != nil {
		return err
	}
	if rep.tr == nil {
		return nil
	}
	spans, err := json.Marshal(rep.tr.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".spans.json"), spans, 0o644)
}

// summarizeRuns reads result lines (one run each) and prints, per metric,
// the run count, median, quartiles and the quartile spread as a share of
// the median — the figures BENCHMARK.json's bounds are set from.
func summarizeRuns(r io.Reader, w io.Writer) error {
	vals := map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var res struct {
			Metrics map[string]struct{ Value float64 } `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil || res.Metrics == nil {
			continue
		}
		for n, m := range res.Metrics {
			vals[n] = append(vals[n], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %4s %14s %14s %14s %8s\n", "metric", "runs", "q1", "median", "q3", "spread")
	for _, n := range names {
		xs := vals[n]
		if len(xs) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		spread := math.NaN()
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		fmt.Fprintf(w, "%-34s %4d %14.6g %14.6g %14.6g %8.4f\n", n, len(xs), q1, q2, q3, spread)
	}
	return nil
}
