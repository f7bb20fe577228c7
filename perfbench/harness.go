package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hyperfile/internal/metrics"
	"hyperfile/internal/object"
	"hyperfile/internal/store"
	"hyperfile/internal/wire"
)

// harness runs the workload's clients against a deployment in a closed
// loop: each client sends its next operation only when the previous one
// has completed.
type harness struct {
	dep    *deployment
	ds     *dataset
	orc    *oracle
	cycles [][]op
	bodies [][]string // per client, per op: the query text
	check  []*checker
	rngs   []*rand.Rand // per client: rewrite payloads

	rewriteMu sync.Mutex // rewrites are serialized so payload versions are ordered

	errMu sync.Mutex
	errs  []string
}

func newHarness(w workloadDef, seed int64, ds *dataset, dep *deployment) *harness {
	d := &harness{dep: dep, ds: ds, orc: newOracle(ds)}
	for c := 0; c < w.clients; c++ {
		cyc := w.cycle(seed, c)
		bodies := make([]string, len(cyc))
		for i, p := range cyc {
			if p.rewrite == nil {
				bodies[i] = p.q.body()
			}
		}
		d.cycles = append(d.cycles, cyc)
		d.bodies = append(d.bodies, bodies)
		d.check = append(d.check, d.orc.checker())
		d.rngs = append(d.rngs, rand.New(rand.NewSource(seed*104729+int64(c))))
	}
	d.orc.prepare(d.cycles)
	return d
}

// tally is what one client did in one block.
type tally struct {
	queries, ops, failed int64
	lat                  []float64 // ms per query
	// Traced blocks only: the Complete timelines' compute time and depth.
	computeUS uint64
	hops      int64
	last      map[shape]*wire.Complete
}

// block is one measured stretch of the run.
type block struct {
	traced  bool
	elapsed time.Duration
	tally
	proc proc
	reg  metrics.Snapshot
}

// runBlock runs every client until deadline, each finishing the cycle it is
// in, and records the costs of the whole stretch.
func (d *harness) runBlock(dur time.Duration, tr *tracer) (block, error) {
	b := block{traced: tr != nil}
	p0, err := readProc()
	if err != nil {
		return b, err
	}
	r0 := d.dep.snapshotAll()
	start := time.Now()
	deadline := start.Add(dur)
	tallies := make([]tally, len(d.cycles))
	bid := tr.id() // every span of the block names it as parent
	var wg sync.WaitGroup
	for c := range d.cycles {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d.client(c, deadline, tr, bid, &tallies[c])
		}(c)
	}
	wg.Wait()
	b.elapsed = time.Since(start)
	tr.record(bid, 0, "block", "", start, start.Add(b.elapsed))
	p1, err := readProc()
	if err != nil {
		return b, err
	}
	b.proc = p1.sub(p0)
	b.reg = d.dep.snapshotAll().Delta(r0)
	for _, t := range tallies {
		b.queries += t.queries
		b.ops += t.ops
		b.failed += t.failed
		b.lat = append(b.lat, t.lat...)
		b.computeUS += t.computeUS
		b.hops += t.hops
		if b.last == nil {
			b.last = t.last
		}
		for k, v := range t.last {
			b.last[k] = v
		}
	}
	return b, nil
}

// client runs whole cycles of client c's operations until deadline.
func (d *harness) client(c int, deadline time.Time, tr *tracer, parent int, t *tally) {
	t.lat = make([]float64, 0, 4096)
	if tr != nil {
		t.last = map[shape]*wire.Complete{}
	}
	initial := []object.ID{d.ds.root}
	for time.Now().Before(deadline) {
		for i, p := range d.cycles[c] {
			t.ops++
			if p.rewrite != nil {
				if err := d.rewrite(c, p.rewrite, tr, parent); err != nil {
					t.failed++
					d.fail(err)
				}
				continue
			}
			qs := time.Now()
			m, err := d.dep.client.Exec(p.origin, d.bodies[c][i], initial, execTimeout)
			qe := time.Now()
			t.queries++
			t.lat = append(t.lat, float64(qe.Sub(qs))/1e6)
			if err == nil {
				err = d.check[c].check(p.q, m, qs, qe)
			}
			if err != nil {
				t.failed++
				d.fail(fmt.Errorf("%s at %v: %w", d.bodies[c][i], p.origin, err))
				continue
			}
			if tr != nil {
				tr.record(0, parent, "server.Client.Exec", m.QID.String(), qs, qe)
				var hop uint32
				for _, s := range m.Spans {
					t.computeUS += s.DurationUS
					hop = max(hop, s.Hop)
				}
				t.hops += int64(hop)
				t.last[p.q] = m
			}
		}
	}
}

// rewrite gives each listed object a fresh payload of 1 to 4,096 bytes
// through its server's LoadObjects.
func (d *harness) rewrite(c int, idx []int, tr *tracer, parent int) error {
	d.rewriteMu.Lock()
	defer d.rewriteMu.Unlock()
	rng := d.rngs[c]
	for _, i := range idx {
		data := make([]byte, 1+rng.Intn(maxPayload))
		rng.Read(data)
		s0 := time.Now()
		obj := d.orc.beginRewrite(i, data, s0)
		err := d.dep.servers[d.ds.site(i)-1].LoadObjects([]*object.Object{obj})
		s1 := time.Now()
		d.orc.endRewrite(i, s1)
		tr.record(0, parent, "server.Server.LoadObjects", "rewrite", s0, s1)
		if err != nil {
			return fmt.Errorf("rewrite %v: %w", obj.ID, err)
		}
	}
	return nil
}

// maxPayload is the largest payload the benchmark writes. Larger ones are
// spilled out of the search representation and come back empty from "->"
// retrieval, a fault of the program this benchmark does not exercise.
const maxPayload = store.DefaultLargeThreshold

func (d *harness) fail(err error) {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	if len(d.errs) < 5 {
		d.errs = append(d.errs, err.Error())
	}
}
