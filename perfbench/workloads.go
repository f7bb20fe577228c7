package main

import (
	"fmt"
	"math/rand"

	"hyperfile/internal/object"
	"hyperfile/internal/workload"
)

// Sites is the number of server sites every workload runs on.
const Sites = 3

// mixedObjects is the size of the mixed_rw dataset.
const mixedObjects = 900

// shape is one filtering query the benchmark issues: the transitive closure
// of PtrKey pointers from the dataset root, selecting objects that carry a
// (Class, Key) tuple and, with Fetch, retrieving each selected object's
// payload bytes.
type shape struct {
	PtrKey string
	Class  string
	Key    int
	Fetch  bool
}

// body renders the shape in the query language.
func (s shape) body() string {
	b := fmt.Sprintf(`Root [ (Pointer, %q, ?X) ^^X ]** (%s, %d, ?)`, s.PtrKey, s.Class, s.Key)
	if s.Fetch {
		b += ` (Text, "body", ->D)`
	}
	return b + ` -> T`
}

// op is one step of a client's cycle: a query at an originator, or a
// rewrite of the payloads of some objects.
type op struct {
	origin  object.SiteID
	q       shape
	rewrite []int // logical object indices; non-nil marks a rewrite
}

// workloadDef fixes a workload's inputs: the generator spec (without seed),
// the number of closed-loop clients, and each client's cycle of operations.
type workloadDef struct {
	name    string
	objects int
	payload int
	clients int
	// cycle returns client c's operations for the run seed; every run
	// repeats whole cycles, so per-query counts do not depend on where the
	// window happens to end.
	cycle func(seed int64, c int) []op
}

var workloads = []workloadDef{
	{
		// Every answer waits on 270 strictly serial cross-site hops.
		name: "chain_hops", objects: workload.DefaultObjects, clients: 1,
		cycle: func(int64, int) []op {
			return []op{{origin: 1, q: shape{PtrKey: "Chain", Class: "Rand10", Key: 5}}}
		},
	},
	{
		// Every object is scanned, three sites in parallel, with few frames.
		// 6,000 objects outgrow the per-core caches, and a 40-second run
		// still completes more than 1,000 queries.
		name: "tree_scan", objects: 6000, clients: 1,
		cycle: func(int64, int) []op {
			return []op{{origin: 1, q: shape{PtrKey: "Tree", Class: "Rand1000", Key: 7}}}
		},
	},
	{
		// Closures over every locality class, payload retrievals and
		// rewrites from two concurrent clients.
		name: "mixed_rw", objects: mixedObjects, payload: 2048, clients: 2,
		cycle: mixedCycle,
	},
}

// mixedCycle is the mixed_rw cycle of client c: a closure over each of the
// seven locality classes (the paper's Figure 4 sweep) at rotating
// originators, two payload retrievals, and one rewrite of three objects.
func mixedCycle(seed int64, c int) []op {
	rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
	classes := workload.DefaultRandClasses
	var ops []op
	origin := object.SiteID(1 + c%Sites)
	next := func() object.SiteID {
		o := origin
		origin = origin%Sites + 1
		return o
	}
	for _, i := range rng.Perm(len(classes)) {
		ops = append(ops, op{origin: next(), q: shape{
			PtrKey: workload.ClassName(classes[i]), Class: "Rand10", Key: 1 + rng.Intn(10),
		}})
	}
	// Retrievals follow the Tree pointers, which reach every object
	// whatever the seed, so the bytes shipped vary little between seeds.
	for r := 0; r < 2; r++ {
		ops = append(ops, op{origin: next(), q: shape{
			PtrKey: "Tree", Class: "Rand10", Key: 1 + rng.Intn(10), Fetch: true,
		}})
	}
	// One object per site, so the rewrite touches every server's store.
	var rw []int
	for s := 0; s < Sites; s++ {
		rw = append(rw, s+Sites*rng.Intn(mixedObjects/Sites))
	}
	return append(ops, op{rewrite: rw})
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}
