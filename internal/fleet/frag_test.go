package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/simgpu"
)

// The reference scorer: the slice-per-probe implementation the packer
// used before slice masks, cached values and mutation-free probes. It
// is kept here, test-only, as the oracle the fast scorer must match
// bit for bit.

func refOccupancy(g *gpuState) (occupied []bool, memSlices int) {
	occupied = make([]bool, g.gpu.Spec.MIGSlices)
	for _, in := range g.insts {
		for s := in.start; s < in.start+in.prof.Slices; s++ {
			occupied[s] = true
		}
		memSlices += in.prof.MemSlices
	}
	return occupied, memSlices
}

func refCoverFree(profiles []simgpu.MIGProfile, occupied []bool, freeMemSl int) (usableSl, usableMemSl int) {
	covered := make([]bool, len(occupied))
	copy(covered, occupied)
	memLeft := freeMemSl
	for i := len(profiles) - 1; i >= 0; i-- {
		p := profiles[i]
		for {
			placed := false
			for _, start := range simgpu.MIGStarts(p.Slices) {
				if start+p.Slices > len(covered) || p.MemSlices > memLeft {
					continue
				}
				free := true
				for s := start; s < start+p.Slices; s++ {
					if covered[s] {
						free = false
						break
					}
				}
				if !free {
					continue
				}
				for s := start; s < start+p.Slices; s++ {
					covered[s] = true
				}
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

func refMIGFrag(g *gpuState) float64 {
	spec := g.gpu.Spec
	occupied, memUsed := refOccupancy(g)
	freeMemSl := spec.MemSlices - memUsed
	freeSl := 0
	for _, o := range occupied {
		if !o {
			freeSl++
		}
	}
	usableSl, usableMemSl := refCoverFree(g.profiles, occupied, freeMemSl)
	strandedSMFrac := 0.0
	totalSMSl := float64(spec.MIGSlices)
	strandedSMFrac += float64(freeSl-usableSl) / totalSMSl
	for _, in := range g.insts {
		used := in.usedPct()
		if used == 0 {
			continue
		}
		freePct := float64(100-used) / 100
		freeMem := 1.0
		if in.prof.MemBytes > 0 {
			freeMem = float64(in.prof.MemBytes-in.usedMem()) / float64(in.prof.MemBytes)
		}
		strandedSMFrac += math.Abs(freePct-freeMem) * float64(in.prof.Slices) / totalSMSl
	}
	strandedMemFrac := 0.0
	if spec.MemSlices > 0 {
		strandedMemFrac = float64(freeMemSl-usableMemSl) / float64(spec.MemSlices)
	}
	return math.Max(strandedSMFrac, strandedMemFrac)
}

func refMPSFrag(g *gpuState) float64 {
	spec := g.gpu.Spec
	freePct := float64(100-g.usedPct()) / 100
	freeMem := 1.0
	if spec.MemBytes > 0 {
		freeMem = float64(spec.MemBytes-g.usedMem()) / float64(spec.MemBytes)
	}
	return math.Abs(freePct - freeMem)
}

func refGPUFrag(g *gpuState) float64 {
	switch g.mode {
	case modeMPS:
		return refMPSFrag(g)
	case modeMIG:
		return refMIGFrag(g)
	}
	return 0
}

// sameBits fails unless got and want are the same float64, bit for bit.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: got %v (%#x), reference %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

var oracleSpecs = []simgpu.DeviceSpec{simgpu.A100SXM480GB(), simgpu.A100SXM440GB()}

// TestCoverFreeMatchesReference runs the mask cover against the slice
// cover for every occupancy mask, every free memory-slice budget and
// both A100 profile tables.
func TestCoverFreeMatchesReference(t *testing.T) {
	for _, spec := range oracleSpecs {
		profiles := simgpu.MIGProfilesFor(spec)
		for mask := 0; mask < 1<<spec.MIGSlices; mask++ {
			occupied := make([]bool, spec.MIGSlices)
			for s := range occupied {
				occupied[s] = mask&(1<<s) != 0
			}
			for mem := 0; mem <= spec.MemSlices; mem++ {
				gotSl, gotMem := coverFree(profiles, spec.MIGSlices, uint8(mask), mem)
				wantSl, wantMem := refCoverFree(profiles, occupied, mem)
				if gotSl != wantSl || gotMem != wantMem {
					t.Fatalf("%s mask %07b mem %d: cover (%d,%d), reference (%d,%d)",
						spec.Name, mask, mem, gotSl, gotMem, wantSl, wantMem)
				}
			}
		}
	}
}

// shareLoad is one tenant share in an oracle layout, with memory as a
// fraction (num/8) of the instance's profile memory.
type shareLoad struct {
	pct    int
	memNum int64
}

// oracleLoads are the per-instance share loads the oracle cycles
// through: no shares (the used==0 branch), a dedicated tenant, compute-
// or memory-heavy single shares, and multi-share mixes.
var oracleLoads = [][]shareLoad{
	nil,
	{{100, 8}},
	{{100, 0}},
	{{30, 1}},
	{{1, 7}},
	{{25, 2}, {40, 3}},
	{{33, 1}, {33, 1}, {34, 6}},
}

// migLayouts enumerates every set of non-overlapping lattice instances
// that fits the spec's memory slices, each sorted by start as the
// packer keeps them.
func migLayouts(spec simgpu.DeviceSpec) [][]*instance {
	type slot struct {
		prof  simgpu.MIGProfile
		start int
	}
	var slots []slot
	for _, p := range simgpu.MIGProfilesFor(spec) {
		for _, s := range simgpu.MIGStarts(p.Slices) {
			if s+p.Slices <= spec.MIGSlices {
				slots = append(slots, slot{p, s})
			}
		}
	}
	var out [][]*instance
	var walk func(from int, occ uint8, mem int, cur []slot)
	walk = func(from int, occ uint8, mem int, cur []slot) {
		layout := make([]*instance, len(cur))
		for i, sl := range cur {
			layout[i] = &instance{prof: sl.prof, start: sl.start}
		}
		sort.Slice(layout, func(i, j int) bool { return layout[i].start < layout[j].start })
		out = append(out, layout)
		for i := from; i < len(slots); i++ {
			sl := slots[i]
			m := sliceMask(sl.start, sl.prof.Slices)
			if occ&m != 0 || mem+sl.prof.MemSlices > spec.MemSlices {
				continue
			}
			walk(i+1, occ|m, mem+sl.prof.MemSlices, append(cur, sl))
		}
	}
	walk(0, 0, 0, nil)
	return out
}

// loadShares fills an instance's shares from a load pattern.
func loadShares(in *instance, load []shareLoad) {
	in.shares = in.shares[:0]
	for i, l := range load {
		in.shares = append(in.shares, &share{
			tenant: fmt.Sprintf("s%d", i), pct: l.pct, mem: in.prof.MemBytes * l.memNum / 8,
		})
	}
}

// TestMIGFragMatchesReference scores every MIG layout of both A100
// tables under the oracle share loads, and every share and new-instance
// probe on each, against the mutate-score-revert reference. Equality is
// exact: the packer's choices compare these floats.
func TestMIGFragMatchesReference(t *testing.T) {
	probes := []shareLoad{{1, 0}, {20, 1}, {50, 4}}
	for _, spec := range oracleSpecs {
		layouts := migLayouts(spec)
		masks := make(map[uint8]bool)
		scored := 0
		for li, layout := range layouts {
			g := &gpuState{gpu: GPU{ID: "g", Spec: spec}, profiles: simgpu.MIGProfilesFor(spec), insts: layout}
			if len(layout) > 0 {
				g.mode = modeMIG
			}
			for variant := range oracleLoads {
				for ii, in := range layout {
					loadShares(in, oracleLoads[(li+ii+variant)%len(oracleLoads)])
				}
				occ, memSl := g.occupancy()
				masks[occ] = true
				what := fmt.Sprintf("%s layout %d variant %d", spec.Name, li, variant)
				before := refGPUFrag(g)
				g.fragOK = false
				sameBits(t, what, g.cachedFrag(), before)

				// Shares into each existing instance.
				for _, in := range layout {
					for _, p := range probes {
						mem := in.prof.MemBytes * p.memNum / 8
						got := migFrag(g, occ, memSl, migProbe{inst: in, pct: p.pct, mem: mem})
						in.shares = append(in.shares, &share{tenant: "probe", pct: p.pct, mem: mem})
						want := refMIGFrag(g)
						in.shares = in.shares[:len(in.shares)-1]
						sameBits(t, what+" share probe", got, want)
						scored++
					}
				}
				// A new instance of every profile at every free start.
				for _, prof := range g.profiles {
					if memSl+prof.MemSlices > spec.MemSlices {
						continue
					}
					for _, start := range simgpu.MIGStarts(prof.Slices) {
						m := sliceMask(start, prof.Slices)
						if start+prof.Slices > spec.MIGSlices || occ&m != 0 {
							continue
						}
						for _, p := range probes {
							mem := prof.MemBytes * p.memNum / 8
							got := migFrag(g, occ|m, memSl+prof.MemSlices, migProbe{prof: prof, pct: p.pct, mem: mem})
							wasMode := g.mode
							g.insts = append(g.insts, &instance{prof: prof, start: start,
								shares: []*share{{tenant: "probe", pct: p.pct, mem: mem}}})
							g.mode = modeMIG
							want := refMIGFrag(g)
							g.insts = g.insts[:len(g.insts)-1]
							g.mode = wasMode
							sameBits(t, fmt.Sprintf("%s new %s@%d probe", what, prof.Name, start), got, want)
							scored++
						}
					}
				}
			}
		}
		if len(masks) != 1<<spec.MIGSlices {
			t.Fatalf("%s: layouts reach %d occupancy masks, want all %d", spec.Name, len(masks), 1<<spec.MIGSlices)
		}
		t.Logf("%s: %d layouts, %d probes scored", spec.Name, len(layouts), scored)
	}
}

// TestMPSFragMatchesReference covers the whole-GPU MPS scorer and its
// probe across share loads.
func TestMPSFragMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, spec := range oracleSpecs {
		for trial := 0; trial < 500; trial++ {
			g := &gpuState{gpu: GPU{ID: "g", Spec: spec}, mode: modeMPS}
			left := 100
			for n := rng.Intn(4); n >= 0 && left > 1; n-- {
				pct := 1 + rng.Intn(left-1)
				left -= pct
				g.shares = append(g.shares, &share{tenant: fmt.Sprint(n), pct: pct, mem: rng.Int63n(spec.MemBytes / 4)})
			}
			sameBits(t, "mps state", gpuFrag(g), refMPSFrag(g))
			pct, mem := 1+rng.Intn(left), rng.Int63n(spec.MemBytes/4)
			got := mpsFrag(&spec, g.usedPct()+pct, g.usedMem()+mem)
			g.shares = append(g.shares, &share{tenant: "probe", pct: pct, mem: mem})
			sameBits(t, "mps probe", got, refMPSFrag(g))
		}
	}
}

// TestDriftLeavesClusterUnchanged: Drift solves from scratch on the
// side and touches neither placements nor fragmentation.
func TestDriftLeavesClusterUnchanged(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := churnedCluster(t, seed, mixedInventory(2, 2), 200)
		pls, frag := c.Placements(), c.Fragmentation()
		c.Drift()
		if err := c.Validate(); err != nil {
			t.Fatalf("seed %d: after Drift: %v", seed, err)
		}
		if !reflect.DeepEqual(pls, c.Placements()) {
			t.Fatalf("seed %d: Drift moved placements", seed)
		}
		if !reflect.DeepEqual(frag, c.Fragmentation()) {
			t.Fatalf("seed %d: Drift changed fragmentation", seed)
		}
	}
}

// TestRebalanceAdoptsScratchSolve: an applied Rebalance leaves exactly
// the placements Solve gives the survivors; a declined one leaves the
// churned placements. Both must stay valid, caches included.
func TestRebalanceAdoptsScratchSolve(t *testing.T) {
	applied := 0
	for seed := int64(1); seed <= 12; seed++ {
		c := churnedCluster(t, seed, mixedInventory(2, 2), 200)
		before := c.Placements()
		scratch, err := c.Solve(c.Demands())
		rep := c.Rebalance()
		if err := c.Validate(); err != nil {
			t.Fatalf("seed %d: after Rebalance: %v", seed, err)
		}
		if !rep.Applied {
			if !reflect.DeepEqual(before, c.Placements()) {
				t.Fatalf("seed %d: declined rebalance moved placements", seed)
			}
			continue
		}
		applied++
		if err != nil {
			t.Fatalf("seed %d: Rebalance applied but Solve failed: %v", seed, err)
		}
		if !reflect.DeepEqual(scratch, c.Placements()) {
			t.Fatalf("seed %d: adopted placements differ from Solve(Demands())", seed)
		}
	}
	if applied == 0 {
		t.Fatal("no seed applied a rebalance; the adoption path was never exercised")
	}
}

// churnedCluster replays a seeded arrival/departure mix (two arrivals
// per departure) for ops operations.
func churnedCluster(tb testing.TB, seed int64, inv Inventory, ops int) *Cluster {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, err := New(Config{Inventory: inv})
	if err != nil {
		tb.Fatal(err)
	}
	var live []string
	for op := 0; op < ops; op++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			name := fmt.Sprintf("t%d", op)
			if _, err := c.Place(randomDemand(rng, name)); err == nil {
				live = append(live, name)
			}
			continue
		}
		i := rng.Intn(len(live))
		if err := c.Evict(live[i]); err != nil {
			tb.Fatal(err)
		}
		live = append(live[:i], live[i+1:]...)
	}
	return c
}
