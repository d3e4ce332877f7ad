// Package continuum models the Computing Continuum the paper targets —
// hybrid HPC + Cloud + Edge execution environments (Balouek-Thomert et al.,
// IJHPCA 2019) — as a deterministic simulation substrate.
//
// The paper's subject systems (orchestrators, FaaS runtimes, energy-aware
// placers) all reason about the same three quantities: compute capacity,
// network distance, and power. This package provides those quantities:
//
//   - Node: a compute location with cores, speed and a linear power model;
//   - Link/Topology: latency and bandwidth between locations;
//   - Infrastructure: a named set of nodes plus a topology, with capacity
//     reservation bookkeeping;
//   - Clock/EventQueue (engine.go): a discrete-event simulation core.
//
// All times are simulated seconds (float64); all data sizes are bytes;
// energy is joules. Nothing reads the wall clock.
package continuum

import (
	"errors"
	"fmt"
	"maps"
	"sort"
)

// Kind is the class of an execution location.
type Kind string

// The three tiers of the Computing Continuum.
const (
	HPC   Kind = "hpc"
	Cloud Kind = "cloud"
	Edge  Kind = "edge"
)

// Valid reports whether k is a known tier.
func (k Kind) Valid() bool { return k == HPC || k == Cloud || k == Edge }

// Node is one execution location.
type Node struct {
	ID     string
	Kind   Kind
	Region string // geographic region, used for default link parameters

	Cores         int     // total cores
	GFLOPSPerCore float64 // per-core sustained compute speed
	MemoryGB      float64

	// Linear power model: P(u) = IdleW + u*(MaxW-IdleW), u = utilization.
	IdleW float64
	MaxW  float64

	// CarbonIntensity is the grams of CO2 emitted per kWh consumed at this
	// location (grid-dependent; Edge sites on renewables can be lower).
	CarbonIntensity float64

	// CostPerCoreHour is the renting price used by cost-aware placement.
	CostPerCoreHour float64

	reserved int // cores currently reserved
}

// Validate checks node parameters.
func (n *Node) Validate() error {
	if n.ID == "" {
		return errors.New("continuum: node with empty ID")
	}
	if !n.Kind.Valid() {
		return fmt.Errorf("continuum: node %s has invalid kind %q", n.ID, n.Kind)
	}
	if n.Cores <= 0 {
		return fmt.Errorf("continuum: node %s has %d cores", n.ID, n.Cores)
	}
	if n.GFLOPSPerCore <= 0 {
		return fmt.Errorf("continuum: node %s has non-positive speed", n.ID)
	}
	if n.IdleW < 0 || n.MaxW < n.IdleW {
		return fmt.Errorf("continuum: node %s has inconsistent power model (idle %v, max %v)", n.ID, n.IdleW, n.MaxW)
	}
	return nil
}

// FreeCores returns the number of unreserved cores.
func (n *Node) FreeCores() int { return n.Cores - n.reserved }

// ReservedCores returns the number of reserved cores.
func (n *Node) ReservedCores() int { return n.reserved }

// Utilization returns the reserved fraction of cores in [0,1].
func (n *Node) Utilization() float64 {
	if n.Cores == 0 {
		return 0
	}
	return float64(n.reserved) / float64(n.Cores)
}

// PowerW returns the instantaneous power draw at utilization u (clamped to
// [0,1]) under the linear model.
func (n *Node) PowerW(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return n.IdleW + u*(n.MaxW-n.IdleW)
}

// EnergyJ returns the energy in joules consumed over d seconds at
// utilization u.
func (n *Node) EnergyJ(u, d float64) float64 { return n.PowerW(u) * d }

// CarbonG returns grams of CO2 for consuming e joules at this node.
func (n *Node) CarbonG(e float64) float64 {
	kWh := e / 3.6e6
	return kWh * n.CarbonIntensity
}

// ExecSeconds returns the time to execute work gflop on cores cores of this
// node, assuming perfect intra-node scaling (callers wanting Amdahl effects
// apply them on top).
func (n *Node) ExecSeconds(gflop float64, cores int) (float64, error) {
	if cores <= 0 || cores > n.Cores {
		return 0, fmt.Errorf("continuum: node %s: invalid core request %d of %d", n.ID, cores, n.Cores)
	}
	if gflop < 0 {
		return 0, fmt.Errorf("continuum: negative work %v", gflop)
	}
	return gflop / (n.GFLOPSPerCore * float64(cores)), nil
}

// Link carries latency and bandwidth between two locations.
type Link struct {
	LatencyS     float64 // one-way latency in seconds
	BandwidthBps float64 // bytes per second
}

// TransferSeconds returns the time to ship size bytes over the link.
func (l Link) TransferSeconds(size float64) float64 {
	if size <= 0 {
		return l.LatencyS
	}
	return l.LatencyS + size/l.BandwidthBps
}

// Topology holds pairwise links. Lookups fall back from the (from,to) pair
// to the region pair to a default. Same-node transfers are free.
type Topology struct {
	nodeLinks   map[[2]string]Link
	regionLinks map[[2]string]Link
	defaultLink Link
	shared      bool // the maps belong to a preset; copy them before a write
}

// NewTopology returns a topology with the given default link.
func NewTopology(def Link) *Topology {
	return &Topology{
		nodeLinks:   map[[2]string]Link{},
		regionLinks: map[[2]string]Link{},
		defaultLink: def,
	}
}

// own gives t private copies of maps it shares with a preset.
func (t *Topology) own() {
	if t.shared {
		t.nodeLinks = maps.Clone(t.nodeLinks)
		t.regionLinks = maps.Clone(t.regionLinks)
		t.shared = false
	}
}

// SetNodeLink sets the link between two specific nodes (both directions).
func (t *Topology) SetNodeLink(a, b string, l Link) {
	t.own()
	t.nodeLinks[[2]string{a, b}] = l
	t.nodeLinks[[2]string{b, a}] = l
}

// SetRegionLink sets the link between two regions (both directions).
func (t *Topology) SetRegionLink(a, b string, l Link) {
	t.own()
	t.regionLinks[[2]string{a, b}] = l
	t.regionLinks[[2]string{b, a}] = l
}

// LinkBetween resolves the link from node a to node b.
func (t *Topology) LinkBetween(a, b *Node) Link {
	if a.ID == b.ID {
		return Link{} // zero latency, infinite-bandwidth treated as free
	}
	if l, ok := t.nodeLinks[[2]string{a.ID, b.ID}]; ok {
		return l
	}
	if l, ok := t.regionLinks[[2]string{a.Region, b.Region}]; ok {
		return l
	}
	return t.defaultLink
}

// TransferSeconds returns the time to move size bytes from a to b.
func (t *Topology) TransferSeconds(a, b *Node, size float64) float64 {
	if a.ID == b.ID {
		return 0
	}
	return t.LinkBetween(a, b).TransferSeconds(size)
}

// Infrastructure is a named set of nodes plus a topology.
type Infrastructure struct {
	nodes       []*Node        // insertion order
	index       map[string]int // node ID → position in nodes
	sharedIndex bool           // index belongs to a preset; copy it before a write
	Topology    *Topology
}

// NewInfrastructure returns an empty infrastructure with a default topology
// (50 ms latency, 100 MB/s) so tests can start simple.
func NewInfrastructure() *Infrastructure {
	return &Infrastructure{
		index:    map[string]int{},
		Topology: NewTopology(Link{LatencyS: 0.05, BandwidthBps: 100e6}),
	}
}

// instance returns a copy of inf with fresh nodes, so its reservations are
// its own, over inf's node index and topology maps. Those are read-only
// until the copy adds a node or a link, which copies them first. Presets
// build their prototype once and hand out instances.
func (inf *Infrastructure) instance() *Infrastructure {
	nodes := make([]Node, len(inf.nodes))
	list := make([]*Node, len(inf.nodes))
	for i, n := range inf.nodes {
		nodes[i] = *n
		list[i] = &nodes[i]
	}
	topo := *inf.Topology
	topo.shared = true
	return &Infrastructure{nodes: list, index: inf.index, sharedIndex: true, Topology: &topo}
}

// AddNode validates and registers a node. The node is stored by pointer;
// callers should not reuse the value.
func (inf *Infrastructure) AddNode(n *Node) error {
	if err := n.Validate(); err != nil {
		return err
	}
	if _, dup := inf.index[n.ID]; dup {
		return fmt.Errorf("continuum: duplicate node %q", n.ID)
	}
	if inf.sharedIndex {
		inf.index = maps.Clone(inf.index)
		inf.sharedIndex = false
	}
	inf.index[n.ID] = len(inf.nodes)
	inf.nodes = append(inf.nodes, n)
	return nil
}

// Node returns a node by ID.
func (inf *Infrastructure) Node(id string) (*Node, error) {
	i, ok := inf.index[id]
	if !ok {
		return nil, fmt.Errorf("continuum: unknown node %q", id)
	}
	return inf.nodes[i], nil
}

// Nodes returns all nodes in insertion order. The slice is the
// infrastructure's own and must not be modified.
func (inf *Infrastructure) Nodes() []*Node {
	return inf.nodes[:len(inf.nodes):len(inf.nodes)]
}

// NodesByKind returns the nodes of one tier, in insertion order.
func (inf *Infrastructure) NodesByKind(k Kind) []*Node {
	var out []*Node
	for _, n := range inf.Nodes() {
		if n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

// Reserve reserves cores on node id. It fails without side effects if the
// node lacks free capacity.
func (inf *Infrastructure) Reserve(id string, cores int) error {
	n, err := inf.Node(id)
	if err != nil {
		return err
	}
	if cores <= 0 {
		return fmt.Errorf("continuum: reserve of %d cores", cores)
	}
	if n.FreeCores() < cores {
		return fmt.Errorf("continuum: node %s has %d free cores, requested %d", id, n.FreeCores(), cores)
	}
	n.reserved += cores
	return nil
}

// Release returns cores to node id.
func (inf *Infrastructure) Release(id string, cores int) error {
	n, err := inf.Node(id)
	if err != nil {
		return err
	}
	if cores <= 0 || cores > n.reserved {
		return fmt.Errorf("continuum: release of %d cores (reserved %d) on %s", cores, n.reserved, id)
	}
	n.reserved -= cores
	return nil
}

// TotalCores returns the aggregate core count.
func (inf *Infrastructure) TotalCores() int {
	t := 0
	for _, n := range inf.Nodes() {
		t += n.Cores
	}
	return t
}

// FreeCores returns the aggregate free core count.
func (inf *Infrastructure) FreeCores() int {
	t := 0
	for _, n := range inf.Nodes() {
		t += n.FreeCores()
	}
	return t
}

// IdlePowerW returns the total idle power draw of all nodes, the quantity
// that consolidation-based energy policies try to cut by powering nodes off.
func (inf *Infrastructure) IdlePowerW() float64 {
	var p float64
	for _, n := range inf.Nodes() {
		p += n.IdleW
	}
	return p
}

// SortedByFreeCores returns node IDs ordered by free cores descending
// (ties by ID, for determinism).
func (inf *Infrastructure) SortedByFreeCores() []string {
	nodes := append([]*Node(nil), inf.nodes...)
	sort.Slice(nodes, func(i, j int) bool {
		a, b := nodes[i], nodes[j]
		if a.FreeCores() != b.FreeCores() {
			return a.FreeCores() > b.FreeCores()
		}
		return a.ID < b.ID
	})
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	return ids
}
