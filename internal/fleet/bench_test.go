package fleet

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchDemands is the tracked benchmark's workload: 50 app demands
// drawn from the scenario's demand classes with a fixed seed.
func benchDemands(n int) []Demand {
	rng := rand.New(rand.NewSource(42))
	ds := make([]Demand, n)
	for i := range ds {
		ds[i] = randomDemand(rng, fmt.Sprintf("app%d", i))
	}
	return ds
}

// BenchmarkPack100x50 is the tracked fleet record (BENCH_fleet.json):
// a from-scratch greedy solve of 50 app demands over a 100-GPU mixed
// inventory, the shape `paperbench fleet` runs at.
func BenchmarkPack100x50(b *testing.B) {
	inv := mixedInventory(50, 50)
	ds := benchDemands(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(Config{Inventory: inv})
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range ds {
			if _, err := c.Place(d); err != nil {
				b.Fatalf("demand %+v: %v", d, err)
			}
		}
	}
}

// BenchmarkChurn100GPUs measures steady-state incremental churn: one
// eviction plus one placement against a loaded 100-GPU fleet.
func BenchmarkChurn100GPUs(b *testing.B) {
	inv := mixedInventory(50, 50)
	c, err := New(Config{Inventory: inv})
	if err != nil {
		b.Fatal(err)
	}
	ds := benchDemands(200)
	placed := make([]Demand, 0, len(ds))
	for _, d := range ds {
		if _, err := c.Place(d); err == nil {
			placed = append(placed, d)
		}
	}
	if len(placed) < 50 {
		b.Fatalf("only %d demands placed", len(placed))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := placed[i%len(placed)]
		if err := c.Evict(d.Tenant); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Place(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFragmentation100GPUs measures the metric the sampler and
// the rebalance comparison both lean on.
func BenchmarkFragmentation100GPUs(b *testing.B) {
	inv := mixedInventory(50, 50)
	c, err := New(Config{Inventory: inv})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range benchDemands(200) {
		_, _ = c.Place(d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Fragmentation().Fleet
	}
}

// benchFrag keeps the fleetFrag result live so the call is not
// optimised away.
var benchFrag float64

// BenchmarkFleetFrag100GPUs is the gauge path after every Place and
// Evict: the fleet mean over the cached per-GPU values, which must not
// allocate.
func BenchmarkFleetFrag100GPUs(b *testing.B) {
	inv := mixedInventory(50, 50)
	c, err := New(Config{Inventory: inv})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range benchDemands(200) {
		_, _ = c.Place(d)
	}
	benchFrag = c.fleetFrag() // fill the per-GPU caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFrag = c.fleetFrag()
	}
	b.StopTimer()
	if n := testing.AllocsPerRun(10, func() { benchFrag = c.fleetFrag() }); n != 0 {
		b.Fatalf("fleetFrag makes %v allocs/op, want 0", n)
	}
}

// BenchmarkRebalance128 times one Rebalance of a churned 128-GPU fleet
// holding about 300 tenants: the drift check's from-scratch solve plus,
// when it is less fragmented, its adoption. Each iteration starts from
// a fresh copy of the same churned state.
func BenchmarkRebalance128(b *testing.B) {
	inv := mixedInventory(64, 64)
	churned := churnedCluster(b, 7, inv, 1100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := churnedCluster(b, 7, inv, 1100)
		b.StartTimer()
		c.Rebalance()
	}
	b.ReportMetric(float64(churned.Tenants()), "tenants")
}
