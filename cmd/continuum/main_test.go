package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestFaaSScenario(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "faas", "-rate", "10", "-horizon", "20"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"edge-first", "cloud-only", "energy-aware", "p50"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestEnergyScenario(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "energy", "-vms", "6"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "consolidating") || !strings.Contains(out, "spreading") {
		t.Errorf("energy output:\n%s", out)
	}
}

func TestIOScenario(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "io", "-chunks", "50"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "staged") || !strings.Contains(out, "overlap speedup") {
		t.Errorf("io output:\n%s", out)
	}
}

func TestUnknownScenario(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "quantum"}, &sb); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestFaultsScenario(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "faults"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "p(fail)") || !strings.Contains(out, "0.5") {
		t.Errorf("faults output:\n%s", out)
	}
}

// -metrics appends a Prometheus exposition, namespaced per scheduler, and
// the whole report — table plus metrics — is byte-identical across runs.
func TestFaaSScenarioMetrics(t *testing.T) {
	render := func() string {
		var sb strings.Builder
		if err := run([]string{"-scenario", "faas", "-rate", "10", "-horizon", "20", "-metrics"}, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	out := render()
	for _, want := range []string{
		"# metrics (Prometheus text exposition)",
		"# TYPE edge_first_faas_invocations counter",
		"# TYPE cloud_only_faas_response_s summary",
		`energy_aware_faas_response_s{quantile="0.95"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if again := render(); again != out {
		t.Error("-metrics output differs across identical runs")
	}
	var plain strings.Builder
	if err := run([]string{"-scenario", "faas", "-rate", "10", "-horizon", "20"}, &plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "# metrics") {
		t.Error("metrics printed without the flag")
	}
}

// With -run, -metrics appends the run's telemetry.
func TestRunMetrics(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "corpus/classify", "-metrics"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\n# metrics (Prometheus text exposition)\n# TYPE corpus_shards_exec counter\ncorpus_shards_exec 3\n") {
		t.Errorf("-run -metrics printed no run telemetry:\n%s", sb.String())
	}
}

// The registry-driven flags mirror smsreport's: one shared assembly backs
// -list and -run in every CLI.
func TestRegistryFlags(t *testing.T) {
	var list strings.Builder
	if err := run([]string{"-list"}, &list); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"continuum/faas", "continuum/energy", "scenario/3.4/liqo",
		fmt.Sprintf("%d experiments", experiments.ExpectedExperiments)} {
		if !strings.Contains(list.String(), want) {
			t.Errorf("-list missing %q", want)
		}
	}
	var a, b strings.Builder
	if err := run([]string{"-run", "continuum/faas", "-seed", "7"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "continuum/faas", "-seed", "7", "-workers", "8"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("-run output depends on the worker count")
	}
	if !strings.Contains(a.String(), "energy-aware") {
		t.Errorf("faas experiment table malformed:\n%s", a.String())
	}
}

// The profiling flags must leave valid, non-empty pprof files behind.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var sb strings.Builder
	if err := run([]string{"-scenario", "faults", "-cpuprofile", cpu, "-memprofile", mem}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}
