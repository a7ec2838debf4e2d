package fleet

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/rightsize"
	"repro/internal/simgpu"
)

// pctGrant is the SM grant of an MPS percentage of a domain:
// ceil(pct·domSMs/100), the CUDA_MPS_ACTIVE_THREAD_PERCENTAGE
// semantics simgpu implements.
func pctGrant(domSMs, pct int) int {
	if pct >= 100 {
		return domSMs
	}
	return (pct*domSMs + 99) / 100
}

// candidate is one feasible segment for a demand, scored for the
// greedy choice.
type candidate struct {
	g     *gpuState
	kind  SegmentKind
	inst  *instance         // existing instance to share (nil → new instance or whole-GPU)
	prof  simgpu.MIGProfile // new-instance profile (SegMIG with inst == nil)
	start int
	pct   int
	sms   int
	// delta is the candidate GPU's fragmentation change if chosen — the
	// greedy objective ("lowest-fragmentation feasible segment").
	delta float64
	// waste is the SM overshoot of the grant over the demand.
	waste int
	// memWaste is the memory overshoot of a dedicated new instance
	// (shares reserve exactly the demand, so theirs is 0).
	memWaste int64
	// wasEmpty marks candidates that would claim an untouched GPU;
	// ties prefer consolidating onto GPUs already in use.
	wasEmpty bool
}

// better is the deterministic total order of the greedy choice:
// smallest fragmentation increase, then tightest SM fit, then tightest
// memory fit, then already-used GPUs over empty ones, then inventory
// order, then sharing an existing instance over cutting a new one,
// then the lowest start slice.
//
// bestCandidate probes only the first empty GPU of each spec. That is
// exact only because idx is compared after every field that empty GPUs
// of one spec share: their candidates then differ in idx alone, and
// the lowest index always wins. Moving the idx tie-break ahead of any
// such field would break that equivalence.
func (a candidate) better(b candidate) bool {
	if a.delta != b.delta {
		return a.delta < b.delta
	}
	if a.waste != b.waste {
		return a.waste < b.waste
	}
	if a.memWaste != b.memWaste {
		return a.memWaste < b.memWaste
	}
	if a.wasEmpty != b.wasEmpty {
		return !a.wasEmpty
	}
	if a.g.idx != b.g.idx {
		return a.g.idx < b.g.idx
	}
	aShare, bShare := a.inst != nil, b.inst != nil
	if aShare != bShare {
		return aShare
	}
	return a.start < b.start
}

// Place finds the lowest-fragmentation feasible segment for the demand
// and installs the tenant there. MIG segments are tried first across
// the whole fleet (shares of existing instances and new instances of
// the smallest covering profile); only when no profile can host the
// demand anywhere does the packer fall back to a whole-GPU MPS share.
// Returns ErrUnplaceable when neither path has room, ErrDuplicateTenant
// when the tenant is already placed.
func (c *Cluster) Place(d Demand) (Placement, error) {
	if err := d.validate(); err != nil {
		return Placement{}, err
	}
	if _, ok := c.byTenant[d.Tenant]; ok {
		return Placement{}, fmt.Errorf("%w: %q", ErrDuplicateTenant, d.Tenant)
	}
	best, ok := c.bestCandidate(d)
	if !ok {
		if c.cRejected != nil {
			c.cRejected.Inc()
		}
		c.event("reject", obs.String("tenant", d.Tenant), obs.Int("sms", d.SMs))
		return Placement{}, fmt.Errorf("%w: tenant %q (%d SMs, %d bytes) on %d GPUs",
			ErrUnplaceable, d.Tenant, d.SMs, d.MemBytes, len(c.gpus))
	}
	pl := c.apply(d, best)
	if c.cPlaced != nil {
		c.cPlaced.Inc()
	}
	c.event("place", obs.String("tenant", d.Tenant),
		obs.String("gpu", pl.Segment.GPU),
		obs.String("kind", pl.Segment.Kind.String()),
		obs.String("profile", pl.Segment.Profile),
		obs.Int("percent", pl.Segment.Percent))
	c.updateGauges()
	return pl, nil
}

// bestCandidate runs the greedy search: the MIG candidate set first,
// the whole-GPU MPS set only when that is empty. In each pass only the
// first empty GPU of each spec is probed: the others would offer the
// same candidates with a higher idx, which better never prefers.
func (c *Cluster) bestCandidate(d Demand) (candidate, bool) {
	var best candidate
	found := false
	consider := func(cand candidate) {
		if !found || cand.better(best) {
			best, found = cand, true
		}
	}
	clear(c.emptySeen)
	for _, g := range c.gpus {
		if !c.dupEmpty(g) {
			migCandidates(g, d, consider)
		}
	}
	if found {
		return best, true
	}
	clear(c.emptySeen)
	for _, g := range c.gpus {
		if !c.dupEmpty(g) {
			mpsCandidate(g, d, consider)
		}
	}
	return best, found
}

// dupEmpty reports whether g is empty and an earlier empty GPU of the
// same spec was already probed in this pass.
func (c *Cluster) dupEmpty(g *gpuState) bool {
	if g.mode != modeEmpty {
		return false
	}
	if c.emptySeen[g.class] {
		return true
	}
	c.emptySeen[g.class] = true
	return false
}

// migCandidates emits every feasible MIG segment on one GPU: shares of
// existing instances and new instances of the smallest covering
// profile at every free valid start. The candidate's fragmentation
// delta scores the hypothetical layout without mutating the GPU.
func migCandidates(g *gpuState, d Demand, consider func(candidate)) {
	spec := &g.gpu.Spec
	if spec.MIGSlices == 0 || g.mode == modeMPS {
		return
	}
	before := g.cachedFrag()
	occ, memSl := g.occupancy()
	// Shares of existing instances.
	for _, in := range g.insts {
		instSMs := in.sms(spec)
		if d.SMs > instSMs {
			continue
		}
		pct := rightsize.MinGrantingPercent(instSMs, d.SMs)
		if pct > 100-in.usedPct() {
			continue
		}
		if d.MemBytes > in.prof.MemBytes-in.usedMem() {
			continue
		}
		sms := pctGrant(instSMs, pct)
		delta := migFrag(g, occ, memSl, migProbe{inst: in, pct: pct, mem: d.MemBytes}) - before
		consider(candidate{
			g: g, kind: SegMIG, inst: in, prof: in.prof, start: in.start,
			pct: pct, sms: sms,
			delta: delta, waste: sms - d.SMs,
			wasEmpty: g.mode == modeEmpty,
		})
	}
	// New instance of the smallest covering profile.
	prof, ok := coveringProfile(spec, g.profiles, d)
	if !ok {
		return
	}
	if memSl+prof.MemSlices > spec.MemSlices {
		return
	}
	instSMs := prof.Slices * spec.SMsPerSlice
	pct := rightsize.MinGrantingPercent(instSMs, d.SMs)
	sms := pctGrant(instSMs, pct)
	probe := migProbe{prof: prof, pct: pct, mem: d.MemBytes}
	for _, start := range simgpu.MIGStarts(prof.Slices) {
		m := sliceMask(start, prof.Slices)
		if start+prof.Slices > spec.MIGSlices || occ&m != 0 {
			continue
		}
		delta := migFrag(g, occ|m, memSl+prof.MemSlices, probe) - before
		consider(candidate{
			g: g, kind: SegMIG, prof: prof, start: start,
			pct: pct, sms: sms,
			delta: delta, waste: sms - d.SMs,
			memWaste: prof.MemBytes - d.MemBytes,
			wasEmpty: g.mode == modeEmpty,
		})
	}
}

// mpsCandidate emits the whole-GPU MPS fallback segment on one GPU,
// when it has percentage and memory room.
func mpsCandidate(g *gpuState, d Demand, consider func(candidate)) {
	spec := &g.gpu.Spec
	if g.mode == modeMIG {
		return
	}
	if d.SMs > spec.SMs || d.MemBytes > spec.MemBytes {
		return
	}
	pct := rightsize.MinGrantingPercent(spec.SMs, d.SMs)
	usedPct, usedMem := g.usedPct(), g.usedMem()
	if pct > 100-usedPct {
		return
	}
	if d.MemBytes > spec.MemBytes-usedMem {
		return
	}
	sms := pctGrant(spec.SMs, pct)
	delta := mpsFrag(spec, usedPct+pct, usedMem+d.MemBytes) - g.cachedFrag()
	consider(candidate{
		g: g, kind: SegMPS,
		pct: pct, sms: sms,
		delta: delta, waste: sms - d.SMs,
		wasEmpty: g.mode == modeEmpty,
	})
}

// coveringProfile returns the smallest profile covering the demand's
// SMs and memory (profiles are ordered small → large).
func coveringProfile(spec *simgpu.DeviceSpec, profiles []simgpu.MIGProfile, d Demand) (simgpu.MIGProfile, bool) {
	for _, p := range profiles {
		if p.Slices*spec.SMsPerSlice >= d.SMs && p.MemBytes >= d.MemBytes {
			return p, true
		}
	}
	return simgpu.MIGProfile{}, false
}

// apply installs the chosen candidate and records the placement.
func (c *Cluster) apply(d Demand, cand candidate) Placement {
	g := cand.g
	seg := Segment{
		GPU:      g.gpu.ID,
		Kind:     cand.kind,
		Percent:  cand.pct,
		SMs:      cand.sms,
		MemBytes: d.MemBytes,
	}
	sh := &share{tenant: d.Tenant, pct: cand.pct, sms: cand.sms, mem: d.MemBytes}
	g.fragOK = false
	switch cand.kind {
	case SegMIG:
		seg.Profile = cand.prof.Name
		seg.Start = cand.start
		g.mode = modeMIG
		if cand.inst != nil {
			cand.inst.shares = append(cand.inst.shares, sh)
		} else {
			at, _ := slices.BinarySearchFunc(g.insts, cand.start, func(in *instance, start int) int { return in.start - start })
			g.insts = slices.Insert(g.insts, at, &instance{prof: cand.prof, start: cand.start, shares: []*share{sh}})
		}
	case SegMPS:
		g.mode = modeMPS
		g.shares = append(g.shares, sh)
	}
	pl := &Placement{Demand: d, Segment: seg}
	c.byTenant[d.Tenant] = pl
	c.order = append(c.order, d.Tenant)
	return *pl
}

// Evict removes a tenant, destroying its instance when it held the last
// share and returning the GPU to the empty mode when nothing remains.
func (c *Cluster) Evict(tenant string) error {
	pl, ok := c.byTenant[tenant]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	g := c.gpuByID(pl.Segment.GPU)
	g.fragOK = false
	switch pl.Segment.Kind {
	case SegMIG:
		for i, in := range g.insts {
			if in.start != pl.Segment.Start {
				continue
			}
			in.shares = removeShare(in.shares, tenant)
			if len(in.shares) == 0 {
				g.insts = append(g.insts[:i], g.insts[i+1:]...)
			}
			break
		}
		if len(g.insts) == 0 {
			g.mode = modeEmpty
		}
	case SegMPS:
		g.shares = removeShare(g.shares, tenant)
		if len(g.shares) == 0 {
			g.mode = modeEmpty
		}
	}
	delete(c.byTenant, tenant)
	for i, t := range c.order {
		if t == tenant {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	if c.cEvicted != nil {
		c.cEvicted.Inc()
	}
	c.event("evict", obs.String("tenant", tenant), obs.String("gpu", pl.Segment.GPU))
	c.updateGauges()
	return nil
}

func removeShare(shares []*share, tenant string) []*share {
	for i, s := range shares {
		if s.tenant == tenant {
			return append(shares[:i], shares[i+1:]...)
		}
	}
	return shares
}

func (c *Cluster) gpuByID(id string) *gpuState {
	for _, g := range c.gpus {
		if g.gpu.ID == id {
			return g
		}
	}
	return nil
}

// Migrate evicts and re-places one tenant — the packer may choose a
// better segment now that the fleet has churned since its arrival. On
// failure the tenant is restored to some feasible segment (its old one
// was just freed, so one exists) and the placement error is returned.
func (c *Cluster) Migrate(tenant string) (Placement, error) {
	old, ok := c.byTenant[tenant]
	if !ok {
		return Placement{}, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	d := old.Demand
	if err := c.Evict(tenant); err != nil {
		return Placement{}, err
	}
	pl, err := c.Place(d)
	if err != nil {
		if _, rerr := c.Place(d); rerr != nil {
			return Placement{}, fmt.Errorf("fleet: migrate lost tenant %q: %v (restore: %w)", tenant, err, rerr)
		}
		return Placement{}, err
	}
	if c.cMigrated != nil {
		c.cMigrated.Inc()
	}
	return pl, nil
}

// RebalanceReport compares the churned incremental state with a
// from-scratch solve of the surviving tenants.
type RebalanceReport struct {
	// Equal is true when every surviving tenant occupies exactly the
	// segment a from-scratch solve would give it.
	Equal bool
	// Before and Scratch are the fleet fragmentation of the incremental
	// state and of the from-scratch solve; Gap = Before − Scratch is
	// positive when churn left the fleet more fragmented than necessary.
	Before, Scratch, Gap float64
	// ScratchInfeasible marks the greedy-order corner where the
	// from-scratch solve cannot place every survivor; the incremental
	// state is kept.
	ScratchInfeasible bool
	// Applied is true when Rebalance adopted the scratch solution;
	// Moved counts the tenants whose segment changed.
	Applied bool
	Moved   int
}

// FragGapBound bounds how much worse (in fleet-fragmentation terms) the
// incremental churned state may be than a from-scratch solve of the
// same survivors — the packer's churn-consistency invariant, asserted
// by the property suite. Fragmentation is a [0,1] per-GPU mean, so the
// bound says churn never strands more than half the fleet's resources
// beyond what the demand set itself forces.
const FragGapBound = 0.5

// Drift computes the rebalance comparison without applying anything.
func (c *Cluster) Drift() RebalanceReport {
	rep, _ := c.drift()
	return rep
}

// drift is Drift that also returns the scratch cluster it solved (nil
// when the solve was infeasible), so Rebalance can adopt it.
func (c *Cluster) drift() (RebalanceReport, *Cluster) {
	rep := RebalanceReport{Before: c.fleetFrag()}
	scratch, err := c.scratchSolve()
	if err != nil {
		rep.ScratchInfeasible = true
		return rep, nil
	}
	rep.Scratch = scratch.fleetFrag()
	rep.Gap = rep.Before - rep.Scratch
	rep.Equal = placementsEqual(c, scratch)
	return rep, scratch
}

// Rebalance adopts the from-scratch solve when it is strictly less
// fragmented than the churned state; otherwise the incremental state
// stands. Either way the report carries the comparison.
func (c *Cluster) Rebalance() RebalanceReport {
	rep, scratch := c.drift()
	if c.cRebalances != nil {
		c.cRebalances.Inc()
	}
	if rep.ScratchInfeasible || rep.Equal || rep.Gap <= fragEps {
		c.event("rebalance", obs.String("applied", "false"), obs.Float("gap", rep.Gap))
		return rep
	}
	// The adopted GPUs carry valid fragmentation caches: drift scored
	// the scratch cluster.
	for _, t := range c.order {
		if c.byTenant[t].Segment != scratch.byTenant[t].Segment {
			rep.Moved++
		}
	}
	c.gpus = scratch.gpus
	for i, g := range c.gpus {
		g.idx = i
	}
	for t, pl := range scratch.byTenant {
		*c.byTenant[t] = *pl
	}
	rep.Applied = true
	if c.cMoved != nil {
		c.cMoved.Add(float64(rep.Moved))
	}
	c.event("rebalance", obs.String("applied", "true"),
		obs.Float("gap", rep.Gap), obs.Int("moved", rep.Moved))
	c.updateGauges()
	return rep
}

// scratchSolve replays the surviving demands, in arrival order, onto a
// fresh observation-free cluster over the same inventory.
func (c *Cluster) scratchSolve() (*Cluster, error) {
	fresh, err := New(Config{Inventory: c.inv})
	if err != nil {
		return nil, err
	}
	for _, t := range c.order {
		if _, err := fresh.Place(c.byTenant[t].Demand); err != nil {
			return nil, err
		}
	}
	return fresh, nil
}

// Solve is the batch entry: a from-scratch placement of a whole demand
// set on a fresh cluster over the same inventory. The receiver is not
// modified.
func (c *Cluster) Solve(demands []Demand) ([]Placement, error) {
	fresh, err := New(Config{Inventory: c.inv})
	if err != nil {
		return nil, err
	}
	for _, d := range demands {
		if _, err := fresh.Place(d); err != nil {
			return nil, err
		}
	}
	return fresh.Placements(), nil
}

func placementsEqual(a, b *Cluster) bool {
	if len(a.order) != len(b.order) {
		return false
	}
	for _, t := range a.order {
		pb, ok := b.byTenant[t]
		if !ok || a.byTenant[t].Segment != pb.Segment {
			return false
		}
	}
	return true
}

// fragEps guards float comparisons on fragmentation values.
const fragEps = 1e-9
