package fleet

import (
	"math"
	"math/bits"

	"repro/internal/simgpu"
)

// Fragmentation quantifies stranded capacity: resources that are free
// on paper but unusable by any further placement given the remaining
// MIG profile lattice and the MPS percentage/memory coupling.
//
// Per GPU the metric is a [0,1] fraction:
//
//   - empty → 0 (a fully free GPU can host anything its spec allows);
//   - whole-GPU MPS → the imbalance between the free percentage
//     fraction and the free memory fraction — whichever of compute or
//     memory runs out first strands the surplus of the other;
//   - MIG → the max of the compute-side and memory-side stranding. The
//     compute side covers the free slices greedily with the largest
//     profiles that still fit (the best case for a future arrival);
//     slices no profile can reach — wrong start position in the
//     placement lattice, or no memory slices left to pair with them —
//     are stranded, as is the percentage/memory imbalance inside each
//     partially-shared instance. The memory side counts free memory
//     slices no coverable profile can claim.
//
// The constant MIG-mode tax (the A100's 108 SMs expose only 98 under
// MIG) is deliberately excluded: it is a cost of the mode, not of any
// packing decision, and including it would let the metric punish MIG
// even when packed perfectly.
//
// Fleet fragmentation is the unweighted mean over the inventory, so a
// fully idle fleet scores 0 and gauges stay comparable as GPUs churn
// between modes.

// GPUFrag is one device's fragmentation sample.
type GPUFrag struct {
	ID   string
	Mode string
	Frag float64
}

// FragReport is a point-in-time fragmentation snapshot.
type FragReport struct {
	PerGPU []GPUFrag
	Fleet  float64
}

// Fragmentation computes the current snapshot from the per-GPU cached
// values (see gpuState.cachedFrag).
func (c *Cluster) Fragmentation() FragReport {
	rep := FragReport{PerGPU: make([]GPUFrag, 0, len(c.gpus))}
	for _, g := range c.gpus {
		rep.PerGPU = append(rep.PerGPU, GPUFrag{ID: g.gpu.ID, Mode: g.mode.String(), Frag: g.cachedFrag()})
	}
	rep.Fleet = c.fleetFrag()
	return rep
}

// fleetFrag is Fragmentation().Fleet without building the per-GPU
// list. It sums the cached per-GPU values in inventory order on every
// call rather than keeping a running total, so the result has exactly
// the bits a fresh sum would.
func (c *Cluster) fleetFrag() float64 {
	if len(c.gpus) == 0 {
		return 0
	}
	sum := 0.0
	for _, g := range c.gpus {
		sum += g.cachedFrag()
	}
	return sum / float64(len(c.gpus))
}

// gpuFrag scores one device from scratch.
func gpuFrag(g *gpuState) float64 {
	switch g.mode {
	case modeMPS:
		return mpsFrag(&g.gpu.Spec, g.usedPct(), g.usedMem())
	case modeMIG:
		occ, memSl := g.occupancy()
		return migFrag(g, occ, memSl, migProbe{})
	}
	return 0
}

// mpsFrag is the whole-GPU MPS imbalance of a device whose shares use
// usedPct percent and usedMem bytes: the smaller of the free
// percentage fraction and the free memory fraction is what the next
// arrival can actually have; the difference is stranded.
func mpsFrag(spec *simgpu.DeviceSpec, usedPct int, usedMem int64) float64 {
	freePct := float64(100-usedPct) / 100
	freeMem := 1.0
	if spec.MemBytes > 0 {
		freeMem = float64(spec.MemBytes-usedMem) / float64(spec.MemBytes)
	}
	return math.Abs(freePct - freeMem)
}

// migProbe is a hypothetical share scored without touching the GPU:
// pct percent and mem bytes added to the existing instance inst, or,
// with inst nil and pct > 0, the sole share of a new prof instance. The
// zero probe scores the GPU as it stands.
type migProbe struct {
	inst *instance
	prof simgpu.MIGProfile
	pct  int
	mem  int64
}

// migFrag scores a MIG-mode layout: stranded compute slices (free but
// not coverable by any profile placement), stranded memory slices, and
// intra-instance percentage/memory imbalance. occ and memSl are the
// layout's slice mask and used memory slices, the new instance's
// included when p adds one. That instance's imbalance is summed last,
// after g.insts even when its start sorts earlier: the greedy choice
// compares these floats, and the placements the packer is pinned to
// come from this summation order (frag_test.go checks it bit for bit).
func migFrag(g *gpuState, occ uint8, memSl int, p migProbe) float64 {
	spec := &g.gpu.Spec
	freeMemSl := spec.MemSlices - memSl
	freeSl := spec.MIGSlices - bits.OnesCount8(occ)

	// Greedy largest-first cover of the free slices: the most capacity
	// any sequence of future instances could reclaim.
	usableSl, usableMemSl := coverFree(g.profiles, spec.MIGSlices, occ, freeMemSl)

	strandedSMFrac := 0.0
	totalSMSl := float64(spec.MIGSlices)
	strandedSMFrac += float64(freeSl-usableSl) / totalSMSl

	// Inside each instance, an MPS share that exhausts percentage before
	// memory (or vice versa) strands the surplus, weighted by the
	// instance's share of the device.
	for _, in := range g.insts {
		used, mem := in.usedPct(), in.usedMem()
		if in == p.inst {
			used += p.pct
			mem += p.mem
		}
		if used == 0 {
			continue // dedicated-capacity accounting handled by the cover
		}
		strandedSMFrac += instImbalance(in.prof, used, mem, totalSMSl)
	}
	if p.inst == nil && p.pct > 0 {
		strandedSMFrac += instImbalance(p.prof, p.pct, p.mem, totalSMSl)
	}

	strandedMemFrac := 0.0
	if spec.MemSlices > 0 {
		strandedMemFrac = float64(freeMemSl-usableMemSl) / float64(spec.MemSlices)
	}
	return math.Max(strandedSMFrac, strandedMemFrac)
}

// instImbalance is the device fraction one instance strands when its
// shares use usedPct percent and usedMem bytes.
func instImbalance(prof simgpu.MIGProfile, usedPct int, usedMem int64, totalSMSl float64) float64 {
	freePct := float64(100-usedPct) / 100
	freeMem := 1.0
	if prof.MemBytes > 0 {
		freeMem = float64(prof.MemBytes-usedMem) / float64(prof.MemBytes)
	}
	return math.Abs(freePct-freeMem) * float64(prof.Slices) / totalSMSl
}

// coverFree greedily lays the largest fitting profiles over the free
// slices of an nSlices-slice device whose occupied slices are occ
// (respecting the placement lattice and the free memory-slice budget)
// and reports how many compute and memory slices the cover reaches.
// Free slices outside the cover are stranded.
func coverFree(profiles []simgpu.MIGProfile, nSlices int, occ uint8, freeMemSl int) (usableSl, usableMemSl int) {
	covered := occ
	memLeft := freeMemSl
	// profiles are small→large; walk large→small.
	for i := len(profiles) - 1; i >= 0; i-- {
		p := profiles[i]
		for {
			placed := false
			for _, start := range simgpu.MIGStarts(p.Slices) {
				if start+p.Slices > nSlices || p.MemSlices > memLeft {
					continue
				}
				m := sliceMask(start, p.Slices)
				if covered&m != 0 {
					continue
				}
				covered |= m
				memLeft -= p.MemSlices
				usableSl += p.Slices
				usableMemSl += p.MemSlices
				placed = true
				break
			}
			if !placed {
				break
			}
		}
	}
	return usableSl, usableMemSl
}
