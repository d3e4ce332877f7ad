// Command continuum runs Computing-Continuum what-if scenarios from the
// command line: FaaS workloads under different schedulers, VM fleets under
// different energy policies, and coupled-application I/O modes.
//
// Usage:
//
//	continuum -scenario faas -rate 20 -horizon 60
//	continuum -scenario energy -vms 12
//	continuum -scenario io -chunks 200
//	continuum -list
//	continuum -run continuum/faas
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/capio"
	"repro/internal/clock"
	"repro/internal/continuum"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/faas"
	"repro/internal/orchestrator"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "continuum:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("continuum", flag.ContinueOnError)
	var (
		scenario = fs.String("scenario", "faas", "scenario: faas, energy, io")
		rate     = fs.Float64("rate", 20, "faas: aggregate invocation rate (1/s)")
		horizon  = fs.Float64("horizon", 60, "faas: trace horizon (s)")
		vms      = fs.Int("vms", 12, "energy: fleet size")
		chunks   = fs.Int("chunks", 200, "io: producer chunk count")
		seed     = fs.Int64("seed", 1, "workload seed")
		metrics  = fs.Bool("metrics", false, "faas and -run: append Prometheus-text metrics after the output")
		listExp  = fs.Bool("list", false, "list every registered experiment and exit")
		runExp   = fs.String("run", "", "run one registered experiment by name (\"all\" = whole registry)")
		jsonOut  = fs.Bool("json", false, "with -run: emit the experiment Result as JSON")
		workers  = fs.Int("workers", 0, "with -run: bound the experiment worker pool (0 = default; results identical for any value)")
		cacheDir = fs.String("cache", "", "with -run: content-addressed store directory for experiment memoization")
		packDir  = fs.String("runpack", "", "with -run: seal each executed experiment into a signed runpack under this directory (cmd/runpack verifies)")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof allocation profile after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "continuum: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retained allocations
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "continuum: memprofile:", err)
			}
		}()
	}
	cliOpts := experiments.CLIOptions{
		List: *listExp, Run: *runExp, JSON: *jsonOut,
		Seed: *seed, Workers: *workers, Cache: *cacheDir, Runpack: *packDir,
		Metrics: *metrics,
	}
	if cliOpts.Active() {
		reg, err := experiments.Default()
		if err != nil {
			return err
		}
		return experiments.RunCLI(reg, cliOpts, out)
	}
	switch *scenario {
	case "faas":
		return faasScenario(out, *rate, *horizon, *seed, *metrics)
	case "energy":
		return energyScenario(out, *vms)
	case "io":
		return ioScenario(out, *chunks)
	case "faults":
		return faultsScenario(out, *seed)
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
}

// faultsScenario sweeps step-failure probabilities and reports the makespan
// inflation retries cause (the fault-tolerance what-if). Candidates score
// concurrently on the par worker pool with one seed-split RNG each, so the
// table is identical for any pool size.
func faultsScenario(out io.Writer, seed int64) error {
	mkWf := func() *workflow.Workflow {
		wf := workflow.New("pipeline")
		wf.MustAdd(workflow.Step{ID: "ingest", WorkGFlop: 50, OutputBytes: 100e6})
		var shards []string
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("shard-%d", i)
			wf.MustAdd(workflow.Step{ID: id, After: []string{"ingest"}, WorkGFlop: 400, Cores: 4, OutputBytes: 20e6})
			shards = append(shards, id)
		}
		wf.MustAdd(workflow.Step{ID: "train", After: shards, WorkGFlop: 3000, Cores: 16, OutputBytes: 10e6})
		wf.MustAdd(workflow.Step{ID: "publish", After: []string{"train"}, WorkGFlop: 10})
		return wf
	}
	fmt.Fprintln(out, "Fault-tolerance scenario: step failure probability vs makespan (retry on same node)")
	fmt.Fprintf(out, "%-8s %10s %10s\n", "p(fail)", "makespan", "retries")
	pts, err := orchestrator.SweepFaults(mkWf, continuum.Testbed, orchestrator.DataLocal{},
		[]float64{0, 0.1, 0.3, 0.5}, 50, seed)
	if err != nil {
		return err
	}
	for _, pt := range pts {
		fmt.Fprintf(out, "%-8.1f %9.2fs %10d\n", pt.FailureProb, pt.Stats.Schedule.Makespan, pt.Stats.Failures)
	}
	return nil
}

func faasScenario(out io.Writer, rate, horizon float64, seed int64, metrics bool) error {
	fns := []faas.Function{
		{Name: "detect", WorkGFlop: 0.2, Class: faas.LowLatency, DeadlineS: 0.8, StateBytes: 1e6},
		{Name: "train", WorkGFlop: 50, Class: faas.Batch, DeadlineS: 10, StateBytes: 50e6},
	}
	trace := faas.PoissonTrace(fns, rate, horizon, rng.New(seed))
	var opts []faas.CompareOption
	var reg *telemetry.Registry
	if metrics {
		// A Sim clock keeps the exposition free of wall-clock noise: the
		// output depends only on the workload, so identical flags give
		// byte-identical metrics.
		reg = telemetry.NewWithClock(clock.NewSim(seed))
		opts = append(opts, faas.WithMetrics(reg))
	}
	results, names, err := faas.CompareSchedulers(fns, trace, continuum.EdgeCloudTestbed,
		[]faas.Scheduler{faas.EdgeFirst{}, faas.CloudOnly{}, faas.EnergyAware{}}, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "FaaS scenario: %d invocations at %.0f/s over %.0fs\n\n", len(trace), rate, horizon)
	fmt.Fprintf(out, "%-14s %10s %10s %10s %8s %8s %10s\n",
		"scheduler", "p50", "p95", "offload", "cold", "miss", "energy")
	for _, n := range names {
		r := results[n]
		s, err := r.LatencySummary()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-14s %9.3fs %9.3fs %9.1f%% %8d %8d %9.0fJ\n",
			n, s.Median, s.P95, r.OffloadRate()*100, r.ColdStarts, r.Violations, r.EnergyJ)
	}
	if reg != nil {
		fmt.Fprintf(out, "\n# metrics (Prometheus text exposition)\n%s", reg.PromText())
	}
	return nil
}

func energyScenario(out io.Writer, n int) error {
	vms := make([]energy.VM, n)
	for i := range vms {
		vms[i] = energy.VM{ID: fmt.Sprintf("vm-%02d", i), Cores: 4, MinGFLOPSPerCore: 5, DurationS: 3600}
	}
	fmt.Fprintf(out, "Energy scenario: %d VMs (4 cores each) on the 3-tier testbed\n\n", n)
	fmt.Fprintf(out, "%-14s %7s %10s %12s %10s\n", "placer", "nodes", "power", "energy(1h)", "QoS-viol")
	for _, p := range []energy.Placer{energy.Consolidating{}, energy.Spreading{}} {
		inf := continuum.Testbed()
		a, err := p.Place(vms, inf)
		if err != nil {
			return err
		}
		rep, err := energy.Evaluate(p.Name(), vms, a, inf)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-14s %7d %9.0fW %11.0fJ %10d\n",
			rep.Placer, rep.ActiveNodes, rep.TotalPowerW, rep.EnergyJ, rep.QoSViolations)
	}
	return nil
}

func ioScenario(out io.Writer, chunks int) error {
	m := capio.CouplingModel{Chunks: chunks, ProduceS: 0.5, TransferS: 0.1, ConsumeS: 0.4}
	staged, err := m.StagedMakespan()
	if err != nil {
		return err
	}
	streamed, err := m.StreamedMakespan()
	if err != nil {
		return err
	}
	overlap, err := m.Overlap()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "I/O coupling scenario (FLASH+SYGMA style): %d chunks, produce 0.5s, transfer 0.1s, consume 0.4s\n\n", chunks)
	fmt.Fprintf(out, "staged  (wait for all files):  %8.1fs\n", staged)
	fmt.Fprintf(out, "streamed (CAPIO-style):        %8.1fs\n", streamed)
	fmt.Fprintf(out, "overlap speedup:               %8.2fx\n", overlap)
	return nil
}
