package scenarios

// The substrate-op vocabulary. Every Table 2 scenario — and every generated
// what-if configuration (internal/scengen) — is a composition of the ops in
// this file: small, parameterized, JSON-serializable values implementing
// Op. An op reads the State fields earlier ops produced, performs one
// substrate action (build a corpus, place a workflow, inject faults, run a
// survey perturbation), records numeric observations, and asserts the
// behaviour the paper's application sections motivate.
//
// Ops are data: their identity is OpFingerprint (canonical JSON over the
// exported fields, prefixed with the kind), so a composition's behaviour is
// fully determined by values that can be hashed, stored, and diffed — the
// same declarative-identity discipline exp.Spec applies to whole
// experiments, pushed down one level.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/bigdata"
	"repro/internal/capio"
	"repro/internal/catalog"
	"repro/internal/continuum"
	"repro/internal/corpus"
	"repro/internal/divexplorer"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/faas"
	"repro/internal/interactive"
	"repro/internal/jcs"
	"repro/internal/mlir"
	"repro/internal/netlink"
	"repro/internal/orchestrator"
	"repro/internal/pmu"
	"repro/internal/ppc"
	"repro/internal/stream"
	"repro/internal/survey"
	"repro/internal/workflow"
	"repro/internal/worldmodel"
)

// Op is one substrate action in a composition. Implementations are plain
// structs of JSON-serializable parameters; Apply must follow the exp.Env
// determinism obligations (randomness only via env streams or hashUniform,
// no wall-clock time).
type Op interface {
	// Kind is the op's stable vocabulary name ("place", "inject-faults"…).
	Kind() string
	// Apply executes the op against the composition state.
	Apply(ctx context.Context, env *exp.Env, st *State) error
}

// opVersion is folded into every op fingerprint; bump it when the
// fingerprint recipe changes.
const opVersion = "scenarios/op/v1"

// OpFingerprint returns the canonical identity of an op: SHA-256 over the
// version, the kind, and the canonical (RFC 8785) JSON of its parameters.
// Two ops with the same fingerprint behave identically under the same Env.
func OpFingerprint(op Op) (string, error) {
	body, err := jcs.Marshal(op)
	if err != nil {
		return "", fmt.Errorf("scenarios: fingerprinting op %s: %w", op.Kind(), err)
	}
	h := sha256.New()
	field := func(b []byte) {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	field([]byte(opVersion))
	field([]byte(op.Kind()))
	field(body)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashUniform derives a uniform in [0,1) from a seed and a key, with no
// draw-order dependence: the same (seed, parts) always yields the same
// value regardless of which other uniforms were consumed. It is the
// construction behind nested fault sets — raising a probability threshold
// only adds events, never reshuffles them — which is what makes the
// generator's monotonicity invariants hold by construction.
func hashUniform(seed int64, parts ...string) float64 {
	h := uint64(1469598103934665603)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 1099511628211
		}
		h ^= 0xff // separator: ("ab","c") != ("a","bc")
		h *= 1099511628211
	}
	z := uint64(seed) + (h+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// ---------------------------------------------------------------------------
// Data substrate

// SynthCorpus generates a synthetic file corpus (ppc.SyntheticCorpus) into
// State.Files, drawing from the named env stream.
type SynthCorpus struct {
	Projects int    `json:"projects"`
	FilesPer int    `json:"files_per"`
	Bytes    int    `json:"bytes"`
	Stream   string `json:"stream"`
}

func (SynthCorpus) Kind() string { return "synth-corpus" }

func (op SynthCorpus) Apply(ctx context.Context, env *exp.Env, st *State) error {
	st.Files = ppc.SyntheticCorpus(op.Projects, op.FilesPer, op.Bytes, env.Rng(op.Stream))
	st.Observe("corpus.files", float64(len(st.Files)))
	return nil
}

// CompressCompare compresses State.Files sequentially and in parallel and
// asserts the archives agree byte for byte (the 3.1 FastFlow claim).
type CompressCompare struct {
	BlockSize  int `json:"block_size"`
	SeqWorkers int `json:"seq_workers"`
	ParWorkers int `json:"par_workers"`
}

func (CompressCompare) Kind() string { return "compress-compare" }

func (op CompressCompare) Apply(ctx context.Context, env *exp.Env, st *State) error {
	seq, err := ppc.Compress(ctx, st.Files, ppc.ByName{}, ppc.Options{BlockSize: op.BlockSize, Workers: op.SeqWorkers})
	if err != nil {
		return err
	}
	par, err := ppc.Compress(ctx, st.Files, ppc.ByName{}, ppc.Options{BlockSize: op.BlockSize, Workers: op.ParWorkers})
	if err != nil {
		return err
	}
	if seq.CompressedSize != par.CompressedSize {
		return fmt.Errorf("parallel archive diverged: %d vs %d bytes", par.CompressedSize, seq.CompressedSize)
	}
	st.Observe("ppc.compressed_bytes", float64(seq.CompressedSize))
	return nil
}

// GroupByProject groups State.Files by their leading path segment through
// the data-analysis pipeline and asserts the group count.
type GroupByProject struct {
	Parallelism int `json:"parallelism"`
	WantGroups  int `json:"want_groups"`
}

func (GroupByProject) Kind() string { return "group-by-project" }

func (op GroupByProject) Apply(ctx context.Context, env *exp.Env, st *State) error {
	p := bigdata.NewPipeline[ppc.File, string](op.Parallelism).
		Map(func(f ppc.File) (string, error) { return f.Name, nil }).
		GroupBy(func(name string) string { return strings.SplitN(name, "/", 2)[0] })
	groups, err := p.Run(ctx, st.Files)
	if err != nil {
		return err
	}
	if len(groups) != op.WantGroups {
		return fmt.Errorf("grouped %d projects, want %d", len(groups), op.WantGroups)
	}
	st.Observe("bigdata.groups", float64(len(groups)))
	return nil
}

// WindowedSum streams State.Files keyed by project through tumbling count
// windows, sums bytes per window, and asserts windows were emitted.
type WindowedSum struct {
	Window  int `json:"window"`
	Workers int `json:"workers"`
}

func (WindowedSum) Kind() string { return "windowed-sum" }

func (op WindowedSum) Apply(ctx context.Context, env *exp.Env, st *State) error {
	src := stream.FromSlice(ctx, st.Files)
	keyed := stream.KeyBy(ctx, src, func(f ppc.File) string {
		return strings.SplitN(f.Name, "/", 2)[0]
	})
	wins := stream.TumblingCount(keyed, op.Window)
	sums, err := stream.AggregateWindows(wins, func(w stream.Window[ppc.File]) int {
		n := 0
		for _, f := range w.Items {
			n += len(f.Data)
		}
		return n
	}, stream.Workers(op.Workers)).Collect()
	if err != nil {
		return err
	}
	if len(sums) == 0 {
		return errors.New("no windows emitted")
	}
	total := 0
	for _, s := range sums {
		total += s
	}
	st.Observe("stream.windows", float64(len(sums)))
	st.Observe("stream.window_bytes", float64(total))
	return nil
}

// ---------------------------------------------------------------------------
// Workflow substrate

// StepSpec is the declarative form of one workflow step.
type StepSpec struct {
	ID       string   `json:"id"`
	After    []string `json:"after,omitempty"`
	GFlop    float64  `json:"gflop,omitempty"`
	Cores    int      `json:"cores,omitempty"`
	Tier     string   `json:"tier,omitempty"`
	OutBytes float64  `json:"out_bytes,omitempty"`
}

func buildWorkflow(name string, steps []StepSpec) (*workflow.Workflow, error) {
	wf := workflow.New(name)
	for _, s := range steps {
		if err := wf.Add(workflow.Step{
			ID: s.ID, After: s.After, WorkGFlop: s.GFlop,
			Cores: s.Cores, Tier: s.Tier, OutputBytes: s.OutBytes,
		}); err != nil {
			return nil, err
		}
	}
	return wf, nil
}

// BuildWorkflow materializes a declarative DAG into State.Workflow.
type BuildWorkflow struct {
	Name  string     `json:"name"`
	Steps []StepSpec `json:"steps"`
}

func (BuildWorkflow) Kind() string { return "build-workflow" }

func (op BuildWorkflow) Apply(ctx context.Context, env *exp.Env, st *State) error {
	wf, err := buildWorkflow(op.Name, op.Steps)
	if err != nil {
		return err
	}
	st.Workflow = wf
	st.Observe("workflow.steps", float64(wf.Len()))
	st.Observe("workflow.base_gflop", wf.TotalWork())
	return nil
}

// NotebookCell is one notebook cell in declarative form.
type NotebookCell struct {
	ID   string `json:"id"`
	Code string `json:"code"`
}

// NotebookCompile compiles a notebook into State.Workflow and asserts its
// shape: first/last step of the topological order and/or the step count.
type NotebookCompile struct {
	Name      string         `json:"name"`
	Cells     []NotebookCell `json:"cells"`
	WantFirst string         `json:"want_first,omitempty"`
	WantLast  string         `json:"want_last,omitempty"`
	WantLen   int            `json:"want_len,omitempty"`
}

func (NotebookCompile) Kind() string { return "notebook-compile" }

func (op NotebookCompile) Apply(ctx context.Context, env *exp.Env, st *State) error {
	cells := make([]interactive.Cell, len(op.Cells))
	for i, c := range op.Cells {
		cells[i] = interactive.Cell{ID: c.ID, Code: c.Code}
	}
	nb := &interactive.Notebook{Name: op.Name, Cells: cells}
	wf, err := nb.Compile(interactive.CompileOptions{})
	if err != nil {
		return err
	}
	if op.WantFirst != "" || op.WantLast != "" {
		order, err := wf.TopoOrder()
		if err != nil {
			return err
		}
		if op.WantFirst != "" && order[0] != op.WantFirst {
			return fmt.Errorf("order = %v", order)
		}
		if op.WantLast != "" && order[len(order)-1] != op.WantLast {
			return fmt.Errorf("order = %v", order)
		}
	}
	if op.WantLen != 0 && wf.Len() != op.WantLen {
		return fmt.Errorf("steps = %d", wf.Len())
	}
	st.Workflow = wf
	st.Observe("workflow.steps", float64(wf.Len()))
	return nil
}

// Testbed installs a continuum infrastructure preset into State.Infra.
type Testbed struct {
	// Preset selects the infrastructure: "default" (continuum.Testbed) or
	// "edge-cloud" (continuum.EdgeCloudTestbed).
	Preset string `json:"preset"`
}

func (Testbed) Kind() string { return "testbed" }

func testbedByName(preset string) (*continuum.Infrastructure, error) {
	switch preset {
	case "", "default":
		return continuum.Testbed(), nil
	case "edge-cloud":
		return continuum.EdgeCloudTestbed(), nil
	default:
		return nil, fmt.Errorf("unknown testbed preset %q", preset)
	}
}

func (op Testbed) Apply(ctx context.Context, env *exp.Env, st *State) error {
	inf, err := testbedByName(op.Preset)
	if err != nil {
		return err
	}
	st.Infra = inf
	st.Observe("infra.cores", float64(inf.TotalCores()))
	return nil
}

// policyByName resolves a placement policy from its vocabulary name.
func policyByName(name string, slack float64) (orchestrator.Policy, error) {
	switch name {
	case "heft":
		return orchestrator.HEFT{}, nil
	case "data-local":
		return orchestrator.DataLocal{}, nil
	case "cost-aware":
		return orchestrator.CostAware{}, nil
	case "round-robin":
		return orchestrator.RoundRobin{}, nil
	case "energy-aware":
		return orchestrator.EnergyAware{}, nil
	case "energy-deadline":
		return orchestrator.EnergyDeadline{Slack: slack}, nil
	default:
		return nil, fmt.Errorf("unknown placement policy %q", name)
	}
}

// Place runs a placement policy over State.Workflow on State.Infra,
// recording the placement for Simulate and the tier checks.
type Place struct {
	Policy string `json:"policy"`
	// Slack parameterizes the energy-deadline policy (deadline = Slack ×
	// HEFT makespan); ignored by the other policies.
	Slack float64 `json:"slack,omitempty"`
}

func (Place) Kind() string { return "place" }

func (op Place) Apply(ctx context.Context, env *exp.Env, st *State) error {
	wf, err := st.needWorkflow(op.Kind())
	if err != nil {
		return err
	}
	pol, err := policyByName(op.Policy, op.Slack)
	if err != nil {
		return err
	}
	p, err := pol.Place(wf, st.infra())
	if err != nil {
		return err
	}
	st.Placement, st.Policy = p, pol.Name()
	return nil
}

// Simulate replays the current placement through the discrete-event
// simulator and records the schedule's makespan/energy/cost observations.
type Simulate struct{}

func (Simulate) Kind() string { return "simulate" }

func (op Simulate) Apply(ctx context.Context, env *exp.Env, st *State) error {
	wf, err := st.needWorkflow(op.Kind())
	if err != nil {
		return err
	}
	if st.Placement == nil {
		return errors.New("op simulate requires a placement (compose a place op before it)")
	}
	s, err := orchestrator.Simulate(wf, st.infra(), st.Placement, st.Policy)
	if err != nil {
		return err
	}
	st.Schedule = s
	st.Observe("sim.makespan_s", s.Makespan)
	st.Observe("sim.dynamic_j", s.DynamicEnergyJ)
	st.Observe("sim.idle_j", s.IdleEnergyJ)
	st.Observe("sim.energy_j", s.TotalEnergyJ())
	st.Observe("sim.cost_eur", s.CostEUR)
	st.Observe("sim.bytes_moved", s.BytesMoved)
	st.Observe("sim.nodes_used", float64(s.NodesUsed))
	return nil
}

// RequireTier asserts every placed step landed on a node of the given kind
// (the 3.3 "pipeline stays on HPC" pin).
type RequireTier struct {
	Node string `json:"node"` // continuum kind: "hpc", "cloud", "edge"
}

func (RequireTier) Kind() string { return "require-tier" }

func (op RequireTier) Apply(ctx context.Context, env *exp.Env, st *State) error {
	if st.Placement == nil {
		return errors.New("op require-tier requires a placement")
	}
	for step, nodeID := range st.Placement {
		n, err := st.infra().Node(nodeID)
		if err != nil {
			return err
		}
		if n.Kind != continuum.Kind(op.Node) {
			return fmt.Errorf("step %s escaped the %s pin to %s", step, op.Node, n.Kind)
		}
	}
	return nil
}

// InjectFaults replaces State.Workflow with a fault-inflated clone: each
// step's attempt count is drawn from nested per-(step, attempt) uniforms
// (hashUniform), so for the same stream the fault set at probability p is a
// subset of the fault set at any p' > p. Failures, attempts, and inflated
// work are therefore monotone in Prob by construction — the invariant the
// generator's monotonicity property tests assert. (The classic sequential
// draw in orchestrator.drawAttempts does not nest across probabilities,
// which is why this op derives its uniforms positionally.)
type InjectFaults struct {
	Prob       float64 `json:"prob"`
	MaxRetries int     `json:"max_retries"`
	Stream     string  `json:"stream"`
}

func (InjectFaults) Kind() string { return "inject-faults" }

func (op InjectFaults) Apply(ctx context.Context, env *exp.Env, st *State) error {
	wf, err := st.needWorkflow(op.Kind())
	if err != nil {
		return err
	}
	if op.Prob < 0 || op.Prob >= 1 {
		return fmt.Errorf("failure probability %v outside [0,1)", op.Prob)
	}
	if op.MaxRetries < 0 || op.MaxRetries > 62 {
		return fmt.Errorf("max retries %d outside [0,62]", op.MaxRetries)
	}
	seed := env.SeedFor(op.Stream)
	inflated := workflow.New(wf.Name)
	failures, attempts := 0, 0
	for i, s := range wf.Steps() {
		att := 1
		for a := 1; a <= op.MaxRetries; a++ {
			// Attempt a of step i fails iff its positional uniform falls
			// under Prob — the nested-set construction.
			if hashUniform(seed, s.ID, fmt.Sprintf("%d/%d", i, a)) >= op.Prob {
				break
			}
			att++
		}
		failures += att - 1
		attempts += att
		if err := inflated.Add(workflow.Step{
			ID: s.ID, After: s.After, WorkGFlop: s.WorkGFlop * float64(att),
			Cores: s.Cores, MemoryGB: s.MemoryGB, OutputBytes: s.OutputBytes, Tier: s.Tier,
		}); err != nil {
			return err
		}
	}
	st.Workflow = inflated
	st.Observe("faults.failures", float64(failures))
	st.Observe("faults.attempts", float64(attempts))
	st.Observe("faults.work_gflop", inflated.TotalWork())
	return nil
}

// CompareCosts races placement policies over a declarative workflow on the
// standard testbed and asserts the first policy is no costlier than any
// other (the 3.8 what-if deployment optimization claim).
type CompareCosts struct {
	Name     string     `json:"name"`
	Steps    []StepSpec `json:"steps"`
	Policies []string   `json:"policies"`
}

func (CompareCosts) Kind() string { return "compare-costs" }

func (op CompareCosts) Apply(ctx context.Context, env *exp.Env, st *State) error {
	if len(op.Policies) < 2 {
		return errors.New("compare-costs needs at least two policies")
	}
	pols := make([]orchestrator.Policy, len(op.Policies))
	for i, name := range op.Policies {
		p, err := policyByName(name, 0)
		if err != nil {
			return err
		}
		pols[i] = p
	}
	mkWf := func() *workflow.Workflow {
		wf, err := buildWorkflow(op.Name, op.Steps)
		if err != nil {
			panic(err) // validated by the first placement below
		}
		return wf
	}
	schedules, err := orchestrator.Compare(mkWf, continuum.Testbed, pols)
	if err != nil {
		return err
	}
	costs := map[string]float64{}
	for _, s := range schedules {
		costs[s.Policy] = s.CostEUR
		st.Observe("cost."+s.Policy, s.CostEUR)
	}
	first := costs[pols[0].Name()]
	for _, p := range pols[1:] {
		if first > costs[p.Name()] {
			return fmt.Errorf("%s %.4f€ costlier than %s %.4f€", pols[0].Name(), first, p.Name(), costs[p.Name()])
		}
	}
	return nil
}

// Blueprint parses a TOSCA-style blueprint, compiles it to a workflow,
// places it with the blueprint's own policy on State.Infra, and simulates.
type Blueprint struct {
	JSON string `json:"json"`
}

func (Blueprint) Kind() string { return "blueprint" }

func (op Blueprint) Apply(ctx context.Context, env *exp.Env, st *State) error {
	bp, err := orchestrator.ParseBlueprint(strings.NewReader(op.JSON))
	if err != nil {
		return err
	}
	wf, err := bp.Compile()
	if err != nil {
		return err
	}
	pol, err := bp.Policy()
	if err != nil {
		return err
	}
	inf := st.infra()
	p, err := pol.Place(wf, inf)
	if err != nil {
		return err
	}
	s, err := orchestrator.Simulate(wf, inf, p, pol.Name())
	if err != nil {
		return err
	}
	st.Workflow, st.Placement, st.Policy, st.Schedule = wf, p, pol.Name(), s
	st.Observe("sim.makespan_s", s.Makespan)
	return nil
}

// Federation peers a local cluster with a remote one, borrows capacity and
// returns it (the Liqo checkmark).
type Federation struct {
	Local      string `json:"local"`  // local testbed preset
	Remote     string `json:"remote"` // remote testbed preset
	ShareCores int    `json:"share_cores"`
	Borrow     int    `json:"borrow"`
}

func (Federation) Kind() string { return "federation" }

func (op Federation) Apply(ctx context.Context, env *exp.Env, st *State) error {
	localInf, err := testbedByName(op.Local)
	if err != nil {
		return err
	}
	remoteInf, err := testbedByName(op.Remote)
	if err != nil {
		return err
	}
	a := orchestrator.NewCluster("local", localInf)
	b := orchestrator.NewCluster("remote", remoteInf)
	if err := a.Peer(b, op.ShareCores); err != nil {
		return err
	}
	grants, err := a.Borrow("remote", op.Borrow)
	if err != nil {
		return err
	}
	st.Observe("federation.grants", float64(len(grants)))
	return a.Return("remote", grants)
}

// ---------------------------------------------------------------------------
// Interactive substrate

// ClusterReservation reserves cores for an interactive session under batch
// load and asserts the session starts exactly at its reservation.
type ClusterReservation struct {
	ClusterCores    int     `json:"cluster_cores"`
	ReservedCores   int     `json:"reserved_cores"`
	Start           float64 `json:"start"`
	End             float64 `json:"end"`
	BatchCores      int     `json:"batch_cores"`
	BatchDuration   float64 `json:"batch_duration"`
	SessionCores    int     `json:"session_cores"`
	SessionDuration float64 `json:"session_duration"`
	SubmitAt        float64 `json:"submit_at"`
}

func (ClusterReservation) Kind() string { return "cluster-reservation" }

func (op ClusterReservation) Apply(ctx context.Context, env *exp.Env, st *State) error {
	cl, err := interactive.NewCluster(op.ClusterCores)
	if err != nil {
		return err
	}
	if err := cl.Reserve(interactive.Reservation{ID: "viz", Cores: op.ReservedCores, Start: op.Start, End: op.End}); err != nil {
		return err
	}
	if err := cl.Submit(interactive.Job{ID: "batch", Cores: op.BatchCores, Duration: op.BatchDuration, SubmitAt: 0}); err != nil {
		return err
	}
	if err := cl.Submit(interactive.Job{ID: "session", Cores: op.SessionCores, Duration: op.SessionDuration, SubmitAt: op.SubmitAt, ReservationID: "viz"}); err != nil {
		return err
	}
	traces, err := cl.Run()
	if err != nil {
		return err
	}
	for _, tr := range traces {
		if tr.Job.ID == "session" {
			if tr.StartS != op.Start {
				return fmt.Errorf("session started at %v, want %v", tr.StartS, op.Start)
			}
			st.Observe("interactive.session_start", tr.StartS)
		}
	}
	return nil
}

// BookedSession books an interactive slot through the credit calendar and
// reserves it on a cluster (the 3.9 ICS checkmark).
type BookedSession struct {
	CalendarCores int     `json:"calendar_cores"`
	Rate          float64 `json:"rate"`
	User          string  `json:"user"`
	Credits       float64 `json:"credits"`
	Cores         int     `json:"cores"`
	Start         float64 `json:"start"`
	End           float64 `json:"end"`
	ClusterCores  int     `json:"cluster_cores"`
}

func (BookedSession) Kind() string { return "booked-session" }

func (op BookedSession) Apply(ctx context.Context, env *exp.Env, st *State) error {
	cal, err := interactive.NewCalendar(op.CalendarCores, op.Rate)
	if err != nil {
		return err
	}
	if err := cal.Deposit(op.User, op.Credits); err != nil {
		return err
	}
	b, err := cal.Book(op.User, op.Cores, op.Start, op.End)
	if err != nil {
		return err
	}
	cl, err := interactive.NewCluster(op.ClusterCores)
	if err != nil {
		return err
	}
	st.Observe("interactive.booking_cost", b.Cost)
	return cl.Reserve(b.ToReservation())
}

// ---------------------------------------------------------------------------
// Network and I/O substrate

// FastPath sends the same payload over the reliable and the fast QoS class
// and asserts the fast path is strictly faster.
type FastPath struct {
	PayloadBytes int `json:"payload_bytes"`
}

func (FastPath) Kind() string { return "fast-path" }

func (op FastPath) Apply(ctx context.Context, env *exp.Env, st *State) error {
	f := netlink.NewFabric()
	if _, err := f.Attach("app"); err != nil {
		return err
	}
	if _, err := f.Attach("storage"); err != nil {
		return err
	}
	id, err := f.Dial("app", "storage")
	if err != nil {
		return err
	}
	payload := make([]byte, op.PayloadBytes)
	if err := f.Send(id, payload, netlink.Reliable); err != nil {
		return err
	}
	if err := f.Send(id, payload, netlink.Fast); err != nil {
		return err
	}
	msgs, err := f.Recv("storage")
	if err != nil {
		return err
	}
	if msgs[1].LatencyS >= msgs[0].LatencyS {
		return fmt.Errorf("fast path %.6fs not below reliable %.6fs", msgs[1].LatencyS, msgs[0].LatencyS)
	}
	st.Observe("net.reliable_latency_s", msgs[0].LatencyS)
	st.Observe("net.fast_latency_s", msgs[1].LatencyS)
	return nil
}

// ConnectionMigration migrates a live connection between servers with a
// message in flight and asserts delivery continuity.
type ConnectionMigration struct {
	StateBytes float64 `json:"state_bytes"`
}

func (ConnectionMigration) Kind() string { return "connection-migration" }

func (op ConnectionMigration) Apply(ctx context.Context, env *exp.Env, st *State) error {
	f := netlink.NewFabric()
	for _, ep := range []string{"client", "edge-a", "edge-b"} {
		if _, err := f.Attach(ep); err != nil {
			return err
		}
	}
	id, err := f.Dial("client", "edge-a")
	if err != nil {
		return err
	}
	if err := f.BeginMigration(id); err != nil {
		return err
	}
	if err := f.Send(id, []byte("in-flight"), netlink.Reliable); err != nil {
		return err
	}
	rep, err := f.CompleteMigration(id, "edge-b", op.StateBytes)
	if err != nil {
		return err
	}
	if rep.FlushedMessages != 1 {
		return fmt.Errorf("flushed %d messages, want 1", rep.FlushedMessages)
	}
	srv, err := f.ServerOf(id)
	if err != nil {
		return err
	}
	if srv != "edge-b" {
		return fmt.Errorf("server = %s", srv)
	}
	return nil
}

// CapioStream overlaps a reader with an in-progress writer through the
// streaming store and asserts the reader sees every byte.
type CapioStream struct {
	Writes     int `json:"writes"`
	WriteBytes int `json:"write_bytes"`
}

func (CapioStream) Kind() string { return "capio-stream" }

func (op CapioStream) Apply(ctx context.Context, env *exp.Env, st *State) error {
	s := capio.NewStore()
	w, err := s.Create("pipeline/out.dat")
	if err != nil {
		return err
	}
	r, err := s.Open("pipeline/out.dat")
	if err != nil {
		return err
	}
	want := op.Writes * op.WriteBytes
	done := make(chan error, 1)
	go func() {
		data, err := r.ReadAll()
		if err == nil && len(data) != want {
			err = fmt.Errorf("read %d bytes", len(data))
		}
		done <- err
	}()
	for i := 0; i < op.Writes; i++ {
		if _, err := w.Write(make([]byte, op.WriteBytes)); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return <-done
}

// CouplingOverlap evaluates the producer/consumer streaming-overlap model
// and asserts the speedup clears the floor.
type CouplingOverlap struct {
	Chunks     int     `json:"chunks"`
	ProduceS   float64 `json:"produce_s"`
	TransferS  float64 `json:"transfer_s"`
	ConsumeS   float64 `json:"consume_s"`
	MinSpeedup float64 `json:"min_speedup"`
}

func (CouplingOverlap) Kind() string { return "coupling-overlap" }

func (op CouplingOverlap) Apply(ctx context.Context, env *exp.Env, st *State) error {
	m := capio.CouplingModel{Chunks: op.Chunks, ProduceS: op.ProduceS, TransferS: op.TransferS, ConsumeS: op.ConsumeS}
	ov, err := m.Overlap()
	if err != nil {
		return err
	}
	if ov <= op.MinSpeedup {
		return fmt.Errorf("overlap speedup %.2f too small", ov)
	}
	st.Observe("capio.overlap", ov)
	return nil
}

// ---------------------------------------------------------------------------
// FaaS substrate

// FaasMigration deploys a long-running function at the edge and asserts
// migrating it to the cloud pays off while work remains.
type FaasMigration struct {
	WorkGFlop      float64 `json:"work_gflop"`
	DeadlineS      float64 `json:"deadline_s"`
	StateBytes     float64 `json:"state_bytes"`
	RemainingGFlop float64 `json:"remaining_gflop"`
	From           string  `json:"from"`
	To             string  `json:"to"`
}

func (FaasMigration) Kind() string { return "faas-migration" }

func (op FaasMigration) Apply(ctx context.Context, env *exp.Env, st *State) error {
	p := faas.NewPlatform(continuum.EdgeCloudTestbed(), faas.EdgeFirst{})
	if err := p.Deploy(faas.Function{Name: "long", WorkGFlop: op.WorkGFlop, Class: faas.Batch, DeadlineS: op.DeadlineS, StateBytes: op.StateBytes}); err != nil {
		return err
	}
	out, err := p.EvaluateMigration(faas.MigrationPlan{Function: "long", FromID: op.From, ToID: op.To, RemainingGFlop: op.RemainingGFlop})
	if err != nil {
		return err
	}
	if !out.Worthwhile {
		return errors.New("migration should pay off with 80% work remaining")
	}
	return nil
}

// FaasEnergyRace races the energy-aware scheduler against cloud-only over a
// Poisson invocation trace and asserts the energy win.
type FaasEnergyRace struct {
	WorkGFlop  float64 `json:"work_gflop"`
	DeadlineS  float64 `json:"deadline_s"`
	StateBytes float64 `json:"state_bytes"`
	RatePerS   float64 `json:"rate_per_s"`
	HorizonS   float64 `json:"horizon_s"`
	Stream     string  `json:"stream"`
}

func (FaasEnergyRace) Kind() string { return "faas-energy-race" }

func (op FaasEnergyRace) Apply(ctx context.Context, env *exp.Env, st *State) error {
	fns := []faas.Function{
		{Name: "f", WorkGFlop: op.WorkGFlop, Class: faas.LowLatency, DeadlineS: op.DeadlineS, StateBytes: op.StateBytes},
	}
	trace := faas.PoissonTrace(fns, op.RatePerS, op.HorizonS, env.Rng(op.Stream))
	results, _, err := faas.CompareSchedulers(fns, trace, continuum.EdgeCloudTestbed,
		[]faas.Scheduler{faas.EnergyAware{}, faas.CloudOnly{}})
	if err != nil {
		return err
	}
	if results["energy-aware"].EnergyJ >= results["cloud-only"].EnergyJ {
		return fmt.Errorf("energy-aware %.0fJ not below cloud-only %.0fJ",
			results["energy-aware"].EnergyJ, results["cloud-only"].EnergyJ)
	}
	st.Observe("faas.energy_aware_j", results["energy-aware"].EnergyJ)
	st.Observe("faas.cloud_only_j", results["cloud-only"].EnergyJ)
	return nil
}

// ---------------------------------------------------------------------------
// Modeling and analysis substrate

// WhatIfDepletion integrates the world model under each depletion-rate
// override (the BDMaaS+ parallel what-if claim).
type WhatIfDepletion struct {
	T0         float64   `json:"t0"`
	T1         float64   `json:"t1"`
	Dt         float64   `json:"dt"`
	Depletions []float64 `json:"depletions"`
}

func (WhatIfDepletion) Kind() string { return "what-if-depletion" }

func (op WhatIfDepletion) Apply(ctx context.Context, env *exp.Env, st *State) error {
	m := worldmodel.Demo()
	for _, depl := range op.Depletions {
		if _, err := m.Run(op.T0, op.T1, op.Dt, map[string]float64{"depletion_rate": depl}); err != nil {
			return err
		}
	}
	st.Observe("world.runs", float64(len(op.Depletions)))
	return nil
}

// TrajectoryRegression fits a regression model over a sampled world-model
// trajectory (capital → pollution).
type TrajectoryRegression struct {
	T0          float64 `json:"t0"`
	T1          float64 `json:"t1"`
	Dt          float64 `json:"dt"`
	SampleEvery int     `json:"sample_every"`
	Folds       int     `json:"folds"`
}

func (TrajectoryRegression) Kind() string { return "trajectory-regression" }

func (op TrajectoryRegression) Apply(ctx context.Context, env *exp.Env, st *State) error {
	m := worldmodel.Demo()
	tr, err := m.Run(op.T0, op.T1, op.Dt, nil)
	if err != nil {
		return err
	}
	var xs [][]float64
	var ys []float64
	for i, s := range tr.States {
		if i%op.SampleEvery == 0 {
			xs = append(xs, []float64{s["capital"]})
			ys = append(ys, s["pollution"])
		}
	}
	_, err = divexplorer.SelectModel(xs, ys, divexplorer.DefaultGrid(), op.Folds)
	if err == nil {
		st.Observe("world.samples", float64(len(xs)))
	}
	return err
}

// SyntheticRegression fits and selects a model over seeded noisy linear
// data and asserts the recovered RMSE clears the ceiling.
type SyntheticRegression struct {
	Samples   int     `json:"samples"`
	Scale     float64 `json:"scale"`
	Slope     float64 `json:"slope"`
	Intercept float64 `json:"intercept"`
	Noise     float64 `json:"noise"`
	MaxRMSE   float64 `json:"max_rmse"`
	Folds     int     `json:"folds"`
	Stream    string  `json:"stream"`
}

func (SyntheticRegression) Kind() string { return "synthetic-regression" }

func (op SyntheticRegression) Apply(ctx context.Context, env *exp.Env, st *State) error {
	r := env.Rng(op.Stream)
	var xs [][]float64
	var ys []float64
	for i := 0; i < op.Samples; i++ {
		x := r.Float64() * op.Scale
		xs = append(xs, []float64{x})
		ys = append(ys, op.Slope*x+op.Intercept+r.NormFloat64()*op.Noise)
	}
	m, err := divexplorer.SelectModel(xs, ys, divexplorer.DefaultGrid(), op.Folds)
	if err != nil {
		return err
	}
	rmse, err := m.RMSE(xs, ys)
	if err != nil {
		return err
	}
	if rmse > op.MaxRMSE {
		return fmt.Errorf("selected model RMSE %v", rmse)
	}
	st.Observe("reg.rmse", rmse)
	return nil
}

// SubgroupReduce groups rows by a modulus and reduces each subgroup in
// parallel, asserting the subgroup count.
type SubgroupReduce struct {
	Rows        int `json:"rows"`
	Mod         int `json:"mod"`
	Parallelism int `json:"parallelism"`
}

func (SubgroupReduce) Kind() string { return "subgroup-reduce" }

func (op SubgroupReduce) Apply(ctx context.Context, env *exp.Env, st *State) error {
	rows := make([]int, op.Rows)
	for i := range rows {
		rows[i] = i
	}
	p := bigdata.NewPipeline[int, int](op.Parallelism).
		Map(func(x int) (int, error) { return x % op.Mod, nil }).
		GroupBy(func(m int) string { return fmt.Sprint(m) })
	groups, err := p.Run(ctx, rows)
	if err != nil {
		return err
	}
	counts, err := bigdata.ReduceGroups(ctx, groups, op.Parallelism, func(g bigdata.Group[int]) (int, error) {
		return len(g.Items), nil
	})
	if err != nil {
		return err
	}
	if len(counts) != op.Mod {
		return fmt.Errorf("subgroups = %d", len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	st.Observe("bigdata.subgroups", float64(len(counts)))
	st.Observe("bigdata.rows", float64(total))
	return nil
}

// PMUFrames runs the virtual phasor-measurement estimator and asserts the
// frame count.
type PMUFrames struct {
	SampleRate float64 `json:"sample_rate"`
	NominalHz  float64 `json:"nominal_hz"`
	Amplitude  float64 `json:"amplitude"`
	Frequency  float64 `json:"frequency"`
	Frames     int     `json:"frames"`
}

func (PMUFrames) Kind() string { return "pmu-frames" }

func (op PMUFrames) Apply(ctx context.Context, env *exp.Env, st *State) error {
	e := &pmu.Estimator{SampleRate: op.SampleRate, NominalHz: op.NominalHz}
	sig := &pmu.Signal{Amplitude: op.Amplitude, Frequency: op.Frequency, Phase: 0}
	ms, err := e.Run(sig, op.Frames, nil)
	if err != nil {
		return err
	}
	if len(ms) != op.Frames {
		return fmt.Errorf("frames = %d", len(ms))
	}
	st.Observe("pmu.frames", float64(len(ms)))
	return nil
}

// ---------------------------------------------------------------------------
// Compiler substrate

// MLIRPassWorkflow runs the optimization passes as an orchestrated workflow
// over an AXPY module and validates the result.
type MLIRPassWorkflow struct {
	Size int     `json:"size"`
	A    float64 `json:"a"`
}

func (MLIRPassWorkflow) Kind() string { return "mlir-pass-workflow" }

func (op MLIRPassWorkflow) Apply(ctx context.Context, env *exp.Env, st *State) error {
	m := mlir.AXPY("axpy", op.Size, op.A)
	passes := []mlir.Pass{mlir.ConstFold{}, mlir.DCE{}, mlir.LowerTensorToLoop{}, mlir.LoopFusion{}, mlir.LowerLoopToRV{}}
	wf := workflow.New("mlir-pipeline")
	bodies := map[string]workflow.StepFunc{}
	prev := ""
	for i, p := range passes {
		id := fmt.Sprintf("%02d-%s", i, p.Name())
		var after []string
		if prev != "" {
			after = []string{prev}
		}
		wf.MustAdd(workflow.Step{ID: id, After: after})
		p := p
		bodies[id] = func(ctx context.Context, deps map[string]any) (any, error) {
			return nil, p.Run(m)
		}
		prev = id
	}
	var r workflow.Runner
	if _, err := r.Run(ctx, wf, bodies); err != nil {
		return err
	}
	return m.Validate()
}

// MLIRLoweringEquivalence lowers an AXPY module through the default
// pipeline and asserts semantics are preserved against the interpreter.
type MLIRLoweringEquivalence struct {
	Size int     `json:"size"`
	A    float64 `json:"a"`
}

func (MLIRLoweringEquivalence) Kind() string { return "mlir-lowering" }

func (op MLIRLoweringEquivalence) Apply(ctx context.Context, env *exp.Env, st *State) error {
	n := op.Size
	inputs := map[string][]float64{"%x": make([]float64, n), "%y": make([]float64, n)}
	for i := 0; i < n; i++ {
		inputs["%x"][i] = float64(i)
		inputs["%y"][i] = 1
	}
	hi := mlir.AXPY("axpy", n, op.A)
	want, err := mlir.Interpret(hi, inputs)
	if err != nil {
		return err
	}
	lo := mlir.AXPY("axpy", n, op.A)
	if err := mlir.DefaultPipeline().Run(lo); err != nil {
		return err
	}
	got, err := mlir.Interpret(lo, inputs)
	if err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("semantics diverged at %d", i)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Generator-facing substrate (energy fleets, survey perturbation, corpus
// mutation) — the what-if axes ROADMAP item 2 asks for beyond Table 2.

// EnergyFleet places a seeded VM fleet with the named placer, evaluates its
// energy report, and releases the reservations. The conservation identity
// total power = idle + dynamic is recorded for the invariant harness.
type EnergyFleet struct {
	VMs       int     `json:"vms"`
	CoresMin  int     `json:"cores_min"`
	CoresMax  int     `json:"cores_max"`
	DurationS float64 `json:"duration_s"`
	Placer    string  `json:"placer"` // "consolidating" or "spreading"
	Stream    string  `json:"stream"`
}

func (EnergyFleet) Kind() string { return "energy-fleet" }

func (op EnergyFleet) Apply(ctx context.Context, env *exp.Env, st *State) error {
	if op.CoresMax < op.CoresMin || op.CoresMin < 1 {
		return fmt.Errorf("bad core range [%d,%d]", op.CoresMin, op.CoresMax)
	}
	var placer energy.Placer
	switch op.Placer {
	case "consolidating":
		placer = energy.Consolidating{}
	case "spreading":
		placer = energy.Spreading{}
	default:
		return fmt.Errorf("unknown placer %q", op.Placer)
	}
	r := env.Rng(op.Stream)
	vms := make([]energy.VM, op.VMs)
	for i := range vms {
		vms[i] = energy.VM{
			ID:        fmt.Sprintf("vm-%02d", i),
			Cores:     op.CoresMin + r.Intn(op.CoresMax-op.CoresMin+1),
			DurationS: op.DurationS,
		}
	}
	inf := st.infra()
	a, err := placer.Place(vms, inf)
	if err != nil {
		return err
	}
	rep, err := energy.Evaluate(placer.Name(), vms, a, inf)
	if err != nil {
		return err
	}
	if err := energy.ReleaseAll(vms, a, inf); err != nil {
		return err
	}
	if rep.QoSViolations != 0 {
		return fmt.Errorf("%d QoS violations from a correct placer", rep.QoSViolations)
	}
	st.Observe("energy.active_nodes", float64(rep.ActiveNodes))
	st.Observe("energy.idle_w", rep.IdlePowerW)
	st.Observe("energy.dynamic_w", rep.DynamicW)
	st.Observe("energy.total_w", rep.TotalPowerW)
	st.Observe("energy.energy_j", rep.EnergyJ)
	return nil
}

// PerturbSurvey re-runs the Table 2 survey with each (application, tool)
// selection flipped under a positional uniform, then checks the vote
// conservation identity: matrix checkmarks == per-tool vote sum ==
// per-direction vote total. Flip uniforms are positional (hashUniform over
// app and tool), so perturbations nest across probabilities the same way
// fault sets do.
type PerturbSurvey struct {
	FlipProb float64 `json:"flip_prob"`
	Stream   string  `json:"stream"`
}

func (PerturbSurvey) Kind() string { return "perturb-survey" }

// recorded is the paper's recorded survey over the default catalog, with
// its selection set.
type recorded struct {
	survey     *survey.Survey
	selections survey.Selections
}

// recordedSurvey builds the recorded survey once per process and shares it
// with every PerturbSurvey configuration: it is pure, and read-only because
// catalog, survey and selection methods do not mutate.
var recordedSurvey = sync.OnceValues(func() (recorded, error) {
	base, err := survey.Run(catalog.Default(), survey.RecordedRespondent{})
	if err != nil {
		return recorded{}, err
	}
	return recorded{base, base.Selections()}, nil
})

// flipRespondent perturbs the recorded selections positionally.
type flipRespondent struct {
	prob float64
	seed int64
}

func (f flipRespondent) Respond(app *catalog.Application, tools []catalog.Tool) (survey.Response, error) {
	var out []string
	for _, t := range tools {
		in := slices.Contains(app.SelectedTools, t.Name)
		if hashUniform(f.seed, app.ID, t.Name) < f.prob {
			in = !in
		}
		if in {
			out = append(out, t.Name)
		}
	}
	if len(out) == 0 {
		// A provider always selects something; keep the recorded answer.
		out = append(out, app.SelectedTools...)
	}
	return survey.Response{ApplicationID: app.ID, Tools: out}, nil
}

func (op PerturbSurvey) Apply(ctx context.Context, env *exp.Env, st *State) error {
	base, err := recordedSurvey()
	if err != nil {
		return err
	}
	perturbed, err := survey.Run(base.survey.Catalog, flipRespondent{prob: op.FlipProb, seed: env.SeedFor(op.Stream)})
	if err != nil {
		return err
	}
	checkmarks := perturbed.Checkmarks()
	voteSum := 0
	for _, n := range perturbed.VotesByTool() {
		voteSum += n
	}
	dist, err := perturbed.VotesByDirection()
	if err != nil {
		return err
	}
	if checkmarks != voteSum || checkmarks != dist.Total() {
		return fmt.Errorf("vote conservation violated: checkmarks=%d tool-sum=%d direction-total=%d",
			checkmarks, voteSum, dist.Total())
	}
	st.Observe("survey.checkmarks", float64(checkmarks))
	st.Observe("survey.agreement", base.selections.Jaccard(perturbed.Selections()))
	return nil
}

// MutateCorpus generates a seeded synthetic corpus under mutated knobs and
// classifies it with the compiled keyword automaton, recording the
// confusion accounting (total classified must equal N).
type MutateCorpus struct {
	N        int     `json:"n"`
	Overlap  float64 `json:"overlap"`
	Noise    int     `json:"noise"`
	Keywords int     `json:"keywords"`
	Stream   string  `json:"stream"`
}

func (MutateCorpus) Kind() string { return "mutate-corpus" }

func (op MutateCorpus) Apply(ctx context.Context, env *exp.Env, st *State) error {
	if op.N <= 0 {
		return fmt.Errorf("corpus size %d", op.N)
	}
	spec := corpus.Spec{N: op.N, Overlap: op.Overlap, Noise: op.Noise, Keywords: op.Keywords}
	agg := corpus.NewGenerator(spec, env.SeedFor(op.Stream)).Classify(0, op.N)
	if agg.Total != op.N {
		return fmt.Errorf("classified %d of %d entries", agg.Total, op.N)
	}
	st.Observe("corpus.classified", float64(agg.Total))
	st.Observe("corpus.correct", float64(agg.Correct()))
	st.Observe("corpus.accuracy", agg.Accuracy())
	return nil
}
