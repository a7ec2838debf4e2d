// Package fleet places N tenant demands onto M heterogeneous GPUs —
// the cluster layer above simgpu.Device that the ROADMAP's first
// fleet-scale item calls for.
//
// The model follows ParvaGPU's combined MIG+MPS "segments": every GPU
// is exclusively in one sharing mode at a time (as on real hardware),
// either carved into MIG instances or running whole-GPU MPS. A tenant's
// segment is then one of
//
//   - an MPS percentage share *inside* a MIG instance (MPS is available
//     within an instance on real A100s), so small tenants can co-occupy
//     one slice; a dedicated instance is simply a share whose
//     percentage grant covers the whole instance; or
//   - a percentage share of a whole GPU under plain MPS — the fallback
//     for demands no MIG profile covers (more SMs than the 7-slice
//     lattice exposes, more memory than the largest profile grants) or
//     when every lattice is full. Batch (from-scratch) solves apportion
//     these shares with rightsize.PackMPS's largest-remainder method;
//     incremental placements take the minimal granting percentage.
//
// The packer is greedy and fragmentation-aware: each demand goes to the
// feasible segment whose placement increases its GPU's fragmentation
// the least (see Fragmentation for the metric). Churn is incremental —
// arrivals and departures mutate the cluster in place — and Rebalance
// compares the churned state against a from-scratch solve of the
// surviving tenants, adopting the scratch solution when it is strictly
// less fragmented and reporting the gap either way.
//
// Everything is deterministic: identical inventories and identical
// operation sequences yield byte-identical placements, which the
// property suite in fleet_test.go and the FuzzPlace target check
// against the package's own Validate invariants.
package fleet

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/simgpu"
)

// Typed errors. Callers branch on these with errors.Is.
var (
	// ErrUnplaceable is returned when no GPU in the inventory has a
	// feasible segment for the demand.
	ErrUnplaceable = errors.New("fleet: demand cannot be placed")
	// ErrDuplicateTenant is returned when a tenant of the same name is
	// already placed.
	ErrDuplicateTenant = errors.New("fleet: tenant already placed")
	// ErrUnknownTenant is returned by Evict/Migrate for tenants that are
	// not placed.
	ErrUnknownTenant = errors.New("fleet: unknown tenant")
	// ErrBadDemand is returned for malformed demands (empty tenant name,
	// non-positive SMs, negative memory).
	ErrBadDemand = errors.New("fleet: invalid demand")
)

// GPU is one inventory entry: a stable identifier plus the hardware
// spec. IDs key segments, so they must be unique within an inventory.
type GPU struct {
	ID   string
	Spec simgpu.DeviceSpec
}

// Inventory is the fleet's hardware, in a fixed order that placement
// tie-breaks respect (lower index wins).
type Inventory []GPU

// NewInventory builds an inventory with generated gpuN IDs, one per
// spec, in order.
func NewInventory(specs ...simgpu.DeviceSpec) Inventory {
	inv := make(Inventory, len(specs))
	for i, s := range specs {
		inv[i] = GPU{ID: fmt.Sprintf("gpu%d", i), Spec: s}
	}
	return inv
}

// Validate checks the inventory is non-empty with unique IDs and
// internally consistent specs.
func (inv Inventory) Validate() error {
	if len(inv) == 0 {
		return errors.New("fleet: empty inventory")
	}
	seen := make(map[string]bool, len(inv))
	for i, g := range inv {
		if g.ID == "" {
			return fmt.Errorf("fleet: inventory[%d] has no ID", i)
		}
		if seen[g.ID] {
			return fmt.Errorf("fleet: duplicate GPU ID %q", g.ID)
		}
		seen[g.ID] = true
		if err := g.Spec.Validate(); err != nil {
			return fmt.Errorf("fleet: inventory[%d] (%s): %w", i, g.ID, err)
		}
	}
	return nil
}

// Demand is one tenant's right-sized requirement: the SMs at its
// latency knee (rightsize.Recommend) plus its memory footprint.
type Demand struct {
	Tenant   string
	SMs      int
	MemBytes int64
}

func (d Demand) validate() error {
	switch {
	case d.Tenant == "":
		return fmt.Errorf("%w: empty tenant name", ErrBadDemand)
	case d.SMs <= 0:
		return fmt.Errorf("%w: tenant %q wants %d SMs", ErrBadDemand, d.Tenant, d.SMs)
	case d.MemBytes < 0:
		return fmt.Errorf("%w: tenant %q wants negative memory", ErrBadDemand, d.Tenant)
	}
	return nil
}

// SegmentKind distinguishes the two segment shapes.
type SegmentKind uint8

const (
	// SegMIG is an MPS share inside a MIG instance (Percent of the
	// instance's SMs; 100 = the tenant owns the instance).
	SegMIG SegmentKind = iota
	// SegMPS is a percentage share of a whole GPU under plain MPS.
	SegMPS
)

func (k SegmentKind) String() string {
	if k == SegMIG {
		return "mig"
	}
	return "mps"
}

// Segment is the resource grant backing one placement.
type Segment struct {
	// GPU is the inventory ID of the device holding the segment.
	GPU string
	// Kind says whether the segment lives in a MIG instance or on a
	// whole-GPU MPS domain.
	Kind SegmentKind
	// Profile and Start identify the MIG instance (SegMIG only): the
	// profile name and the first compute slice it occupies.
	Profile string
	Start   int
	// Percent is the MPS share of the segment's domain — the instance
	// for SegMIG, the whole device for SegMPS.
	Percent int
	// SMs is the compute grant: ceil(Percent · domainSMs / 100). Always
	// at least the demand's SMs (the demand-met invariant).
	SMs int
	// MemBytes is the memory reservation. Shares reserve exactly the
	// demand (MPS has no memory isolation; capacity is still physical).
	MemBytes int64
}

// Placement pairs a demand with the segment granted to it.
type Placement struct {
	Demand  Demand
	Segment Segment
}

// Config assembles a Cluster.
type Config struct {
	Inventory Inventory
	// Obs, when set, registers fleet metrics (placements, rejections,
	// evictions, fragmentation, per-mode GPU counts) and emits a span
	// per mutating operation on the "fleet" track. Nil keeps the
	// cluster observation-free.
	Obs *obs.Collector
}

// gpuMode is a device's current sharing mode. A GPU leaves modeEmpty on
// its first placement and returns to it when its last tenant departs.
type gpuMode uint8

const (
	modeEmpty gpuMode = iota
	modeMIG
	modeMPS
)

func (m gpuMode) String() string {
	switch m {
	case modeMIG:
		return "mig"
	case modeMPS:
		return "mps"
	}
	return "empty"
}

// share is one tenant's MPS percentage inside a domain (a MIG instance
// or a whole GPU).
type share struct {
	tenant string
	pct    int
	sms    int
	mem    int64
}

// instance is one placed MIG instance and the shares inside it.
type instance struct {
	prof   simgpu.MIGProfile
	start  int
	shares []*share
}

func (in *instance) sms(spec *simgpu.DeviceSpec) int {
	return in.prof.Slices * spec.SMsPerSlice
}

func (in *instance) usedPct() int {
	p := 0
	for _, s := range in.shares {
		p += s.pct
	}
	return p
}

func (in *instance) usedMem() int64 {
	var m int64
	for _, s := range in.shares {
		m += s.mem
	}
	return m
}

// gpuState is one device's occupancy.
type gpuState struct {
	idx      int
	gpu      GPU
	class    int // index of the GPU's spec among the inventory's distinct specs
	mode     gpuMode
	profiles []simgpu.MIGProfile // MIGProfilesFor(spec), small→large, shared per class
	insts    []*instance         // modeMIG, kept sorted by start
	shares   []*share            // modeMPS whole-GPU shares
	// frag caches gpuFrag while fragOK holds; every mutation of the
	// GPU clears fragOK (Validate checks the cache against a recompute).
	frag   float64
	fragOK bool
}

func (g *gpuState) usedPct() int {
	p := 0
	for _, s := range g.shares {
		p += s.pct
	}
	return p
}

func (g *gpuState) usedMem() int64 {
	var m int64
	for _, s := range g.shares {
		m += s.mem
	}
	return m
}

// sliceMask is the occupancy bit set of n compute slices from start.
// The MIG placement lattice spans seven slices, so a uint8 holds it.
func sliceMask(start, n int) uint8 {
	return uint8((1<<n - 1) << start)
}

// occupancy returns the compute-slice mask and used memory slices of a
// MIG-mode GPU.
func (g *gpuState) occupancy() (occ uint8, memSlices int) {
	for _, in := range g.insts {
		occ |= sliceMask(in.start, in.prof.Slices)
		memSlices += in.prof.MemSlices
	}
	return occ, memSlices
}

// cachedFrag returns gpuFrag(g), recomputing it only after a mutation.
func (g *gpuState) cachedFrag() float64 {
	if !g.fragOK {
		g.frag, g.fragOK = gpuFrag(g), true
	}
	return g.frag
}

// Cluster is the fleet's placement state. Not safe for concurrent use:
// like every simulated subsystem here it lives on one Env's virtual
// clock.
type Cluster struct {
	inv      Inventory
	gpus     []*gpuState
	byTenant map[string]*Placement
	// order is the arrival order of live tenants — the demand sequence
	// a from-scratch solve replays.
	order []string
	// emptySeen is bestCandidate's per-pass scratch: which spec classes
	// already had an empty GPU probed.
	emptySeen []bool

	obsC *obs.Collector
	// metrics (nil without a collector)
	cPlaced, cRejected, cEvicted, cMigrated, cRebalances, cMoved *obs.Counter
	gTenants, gFrag, gMIG, gMPS, gEmpty                          *obs.Gauge
}

// New builds an empty cluster over the inventory.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Inventory.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		inv:      cfg.Inventory,
		byTenant: make(map[string]*Placement),
		obsC:     cfg.Obs,
	}
	// GPUs of one spec share a class: a profile table, and one probe
	// per search while they are empty (see bestCandidate).
	var specs []simgpu.DeviceSpec
	var profiles [][]simgpu.MIGProfile
	for i, g := range cfg.Inventory {
		class := slices.Index(specs, g.Spec)
		if class < 0 {
			class = len(specs)
			specs = append(specs, g.Spec)
			profiles = append(profiles, simgpu.MIGProfilesFor(g.Spec))
		}
		c.gpus = append(c.gpus, &gpuState{
			idx:      i,
			gpu:      g,
			class:    class,
			profiles: profiles[class],
		})
	}
	c.emptySeen = make([]bool, len(specs))
	if cfg.Obs != nil {
		m := cfg.Obs.Metrics()
		c.cPlaced = m.Counter("fleet_place_total", obs.L("status", "placed"))
		c.cRejected = m.Counter("fleet_place_total", obs.L("status", "rejected"))
		c.cEvicted = m.Counter("fleet_evict_total")
		c.cMigrated = m.Counter("fleet_migrate_total")
		c.cRebalances = m.Counter("fleet_rebalance_total")
		c.cMoved = m.Counter("fleet_rebalance_moved_total")
		c.gTenants = m.Gauge("fleet_tenants")
		c.gFrag = m.Gauge("fleet_fragmentation")
		c.gMIG = m.Gauge("fleet_gpus", obs.L("mode", "mig"))
		c.gMPS = m.Gauge("fleet_gpus", obs.L("mode", "mps"))
		c.gEmpty = m.Gauge("fleet_gpus", obs.L("mode", "empty"))
		c.gEmpty.Set(float64(len(c.gpus)))
	}
	return c, nil
}

// Inventory returns the cluster's hardware list.
func (c *Cluster) Inventory() Inventory { return c.inv }

// Tenants returns the number of live placements.
func (c *Cluster) Tenants() int { return len(c.order) }

// Lookup returns the live placement for a tenant.
func (c *Cluster) Lookup(tenant string) (Placement, bool) {
	p, ok := c.byTenant[tenant]
	if !ok {
		return Placement{}, false
	}
	return *p, true
}

// Placements lists the live placements in tenant-arrival order.
func (c *Cluster) Placements() []Placement {
	out := make([]Placement, 0, len(c.order))
	for _, t := range c.order {
		out = append(out, *c.byTenant[t])
	}
	return out
}

// Demands lists the live demands in tenant-arrival order — the input a
// from-scratch solve replays.
func (c *Cluster) Demands() []Demand {
	out := make([]Demand, 0, len(c.order))
	for _, t := range c.order {
		out = append(out, c.byTenant[t].Demand)
	}
	return out
}

// updateGauges refreshes the fleet-level gauges after a mutation.
func (c *Cluster) updateGauges() {
	if c.obsC == nil {
		return
	}
	var nMIG, nMPS, nEmpty int
	for _, g := range c.gpus {
		switch g.mode {
		case modeMIG:
			nMIG++
		case modeMPS:
			nMPS++
		default:
			nEmpty++
		}
	}
	c.gTenants.Set(float64(len(c.order)))
	c.gFrag.Set(c.fleetFrag())
	c.gMIG.Set(float64(nMIG))
	c.gMPS.Set(float64(nMPS))
	c.gEmpty.Set(float64(nEmpty))
}

// event records a zero-duration marker span for one mutating operation.
func (c *Cluster) event(name string, attrs ...obs.Attr) {
	if c.obsC == nil {
		return
	}
	now := c.obsC.Now()
	c.obsC.AddSpan("fleet", name, "fleet", 0, now, now, attrs...)
}
