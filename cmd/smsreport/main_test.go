package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/experiments"
)

func runCapture(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestFullReportOutput(t *testing.T) {
	out := runCapture(t)
	for _, want := range []string{"Table 1", "Table 2", "Figure 2", "Q3"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestSingleArtifacts(t *testing.T) {
	if out := runCapture(t, "-table", "1"); !strings.Contains(out, "StreamFlow") {
		t.Error("table 1 missing tool names")
	}
	if out := runCapture(t, "-table", "2", "-format", "csv"); !strings.Contains(out, "✓") {
		t.Error("table 2 csv missing checkmarks")
	}
	if out := runCapture(t, "-fig", "2", "-format", "csv"); !strings.Contains(out, "Orchestration,7") {
		t.Error("fig 2 csv wrong")
	}
	if out := runCapture(t, "-fig", "3", "-format", "svg"); !strings.HasPrefix(out, "<svg") {
		t.Error("fig 3 svg wrong")
	}
	if out := runCapture(t, "-fig", "1"); !strings.Contains(out, "FL3") {
		t.Error("fig 1 missing flagships")
	}
}

// The -workers flag never changes output: the full report and every
// artifact file are byte-identical for workers 1, 2 and 8.
func TestWorkersFlagOutputInvariant(t *testing.T) {
	want := runCapture(t, "-workers", "1")
	for _, w := range []string{"2", "8"} {
		if got := runCapture(t, "-workers", w); got != want {
			t.Errorf("-workers %s report differs from -workers 1", w)
		}
	}

	dirSeq, dirPar := t.TempDir(), t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-out", dirSeq, "-workers", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-out", dirPar, "-workers", "8"}, &sb); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dirSeq)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		a, err := os.ReadFile(filepath.Join(dirSeq, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirPar, f.Name()))
		if err != nil {
			t.Fatalf("artifact %s missing in parallel run: %v", f.Name(), err)
		}
		if string(a) != string(b) {
			t.Errorf("artifact %s differs between -workers 1 and 8", f.Name())
		}
	}
}

func TestErrorPaths(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "9"}, &sb); err == nil {
		t.Error("unknown table accepted")
	}
	if err := run([]string{"-fig", "9"}, &sb); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-fig", "2", "-format", "pdf"}, &sb); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run([]string{"-fig", "1", "-format", "svg"}, &sb); err == nil {
		t.Error("fig 1 svg accepted")
	}
	if err := run([]string{"-catalog", "/nonexistent.json"}, &sb); err == nil {
		t.Error("missing catalog file accepted")
	}
}

func TestWriteAllArtifacts(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-out", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	wantFiles := []string{"table1.txt", "table2.md", "fig2.svg", "fig3.csv", "fig4.txt", "report.txt"}
	for _, f := range wantFiles {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("artifact %s missing: %v", f, err)
		}
	}
}

func TestCustomCatalog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cat.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	c := catalog.Default()
	c.Title = "custom ecosystem"
	if err := c.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	out := runCapture(t, "-catalog", path)
	if !strings.Contains(out, "custom ecosystem") {
		t.Error("custom catalog not used")
	}
}

func TestTable2SVG(t *testing.T) {
	out := runCapture(t, "-table", "2", "-format", "svg")
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "circle") {
		t.Error("table 2 svg rendering wrong")
	}
	var sb strings.Builder
	if err := run([]string{"-table", "1", "-format", "svg"}, &sb); err == nil {
		t.Error("table 1 svg should be rejected")
	}
}

func TestExtensionFigure(t *testing.T) {
	out := runCapture(t, "-fig", "5")
	if !strings.Contains(out, "publication year") {
		t.Errorf("extension figure output:\n%s", out)
	}
	if out := runCapture(t, "-fig", "5", "-format", "csv"); !strings.Contains(out, "2021") {
		t.Error("extension csv missing years")
	}
}

// -metrics appends a deterministic Prometheus exposition covering the
// rendered artifacts; identical invocations are byte-identical.
func TestMetricsFlag(t *testing.T) {
	out := runCapture(t, "-fig", "2", "-format", "csv", "-metrics")
	for _, want := range []string{
		"# metrics (Prometheus text exposition)",
		"# TYPE smsreport_renders counter\nsmsreport_renders 1\n",
		"# TYPE smsreport_artifact_bytes summary",
		"smsreport_artifact_bytes_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if again := runCapture(t, "-fig", "2", "-format", "csv", "-metrics"); again != out {
		t.Error("-metrics output differs across identical runs")
	}
	if strings.Contains(runCapture(t, "-fig", "2", "-format", "csv"), "# metrics") {
		t.Error("metrics printed without the flag")
	}
}

// Every -metrics path appends an exposition: the render paths count the
// rendered artifacts, the -run paths carry the run's own telemetry.
func TestMetricsEveryPath(t *testing.T) {
	const header = "\n# metrics (Prometheus text exposition)\n"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "smsreport_renders 1\n"},
		{[]string{"-fig", "2"}, "smsreport_renders 1\n"},
		{[]string{"-table", "1"}, "smsreport_renders 1\n"},
		{[]string{"-cache", t.TempDir()}, "smsreport_renders 1\n"},
		{[]string{"-out", t.TempDir()}, "smsreport_renders 20\n"},
		{[]string{"-run", "corpus/classify"}, "corpus_shards_exec 3\n"},
		{[]string{"-run", "corpus/stats", "-json"}, "corpus_shards_exec 3\n"},
		{[]string{"-run", "all"}, "scengen_shards_exec 17\n"},
	} {
		out := runCapture(t, append(tc.args, "-metrics")...)
		i := strings.Index(out, header)
		if i < 0 || !strings.Contains(out[i:], tc.want) {
			t.Errorf("%v -metrics: want an exposition holding %q, got tail:\n%s", tc.args, tc.want, out[max(0, len(out)-400):])
		}
		if plain := runCapture(t, tc.args...); strings.Contains(plain, header) {
			t.Errorf("%v: metrics printed without the flag", tc.args)
		}
	}
}

// Under -out, every artifact is counted and the exposition is identical for
// any worker-pool size.
func TestMetricsWriteAllWorkerInvariant(t *testing.T) {
	render := func(workers string) string {
		dir := t.TempDir()
		return runCapture(t, "-out", dir, "-workers", workers, "-metrics")
	}
	out := render("1")
	if !strings.Contains(out, "smsreport_renders 20") {
		t.Errorf("expected 20 artifacts counted:\n%s", out)
	}
	if got := render("8"); got != out {
		t.Errorf("metrics differ between 1 and 8 workers:\n--- want\n%s--- got\n%s", out, got)
	}
}

func TestCacheFlagByteIdentical(t *testing.T) {
	dir := t.TempDir()
	plain := runCapture(t)
	cold := runCapture(t, "-cache", filepath.Join(dir, "store"))
	if cold != plain {
		t.Fatal("-cache cold build differs from uncached output")
	}
	warm := runCapture(t, "-cache", filepath.Join(dir, "store"))
	if warm != plain {
		t.Fatal("-cache warm rebuild differs from uncached output")
	}
	// The store directory must have been populated by the cold build.
	if _, err := os.Stat(filepath.Join(dir, "store", "objects")); err != nil {
		t.Fatalf("cache store not created: %v", err)
	}
}

// The registry-driven flags: -run report.full prints exactly the plain
// report bytes, invariant across worker counts; -list names every
// experiment; -run all sweeps the registry and goes fully cached on a
// warm store.
func TestRegistryFlags(t *testing.T) {
	plain := runCapture(t)
	for _, workers := range []string{"1", "4", "8"} {
		if out := runCapture(t, "-run", "report.full", "-workers", workers); out != plain {
			t.Fatalf("-run report.full -workers %s diverges from the plain render", workers)
		}
	}

	n := experiments.ExpectedExperiments
	list := runCapture(t, "-list")
	for _, want := range []string{"report.full", "scenario/3.1/fastflow", "sweep/faults", "continuum/io", "scengen/faults",
		fmt.Sprintf("%d experiments", n)} {
		if !strings.Contains(list, want) {
			t.Errorf("-list missing %q", want)
		}
	}

	dir := t.TempDir()
	cold := runCapture(t, "-run", "all", "-cache", filepath.Join(dir, "c"))
	if !strings.Contains(cold, fmt.Sprintf("%d experiments ok (hits=0 misses=%d)", n, n)) {
		t.Errorf("cold sweep accounting wrong:\n%s", cold)
	}
	warm := runCapture(t, "-run", "all", "-cache", filepath.Join(dir, "c"))
	if !strings.Contains(warm, fmt.Sprintf("%d experiments ok (hits=%d misses=0)", n, n)) {
		t.Errorf("warm sweep executed bodies:\n%s", warm)
	}
	if !strings.Contains(warm, "report.full") || !strings.Contains(warm, "cached") {
		t.Errorf("warm sweep summary malformed:\n%s", warm)
	}

	jsonOut := runCapture(t, "-run", "continuum/io", "-json")
	for _, want := range []string{`"experiment": "continuum/io"`, `"fingerprint"`, `"overlap_x"`} {
		if !strings.Contains(jsonOut, want) {
			t.Errorf("-json output missing %q", want)
		}
	}

	var sb strings.Builder
	if err := run([]string{"-run", "no-such-experiment"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
}
