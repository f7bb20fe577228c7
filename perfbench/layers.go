package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"hyperfile/internal/cluster"
	"hyperfile/internal/engine"
	"hyperfile/internal/object"
	"hyperfile/internal/plan"
	"hyperfile/internal/query"
	"hyperfile/internal/sim"
	"hyperfile/internal/store"
	"hyperfile/internal/transport"
	"hyperfile/internal/wire"
	"hyperfile/internal/workload"
)

// layers holds the per-layer figures measured outside the TCP window, each
// by calling one layer's public functions directly.
type layers struct {
	pingpongUS                                         float64
	derefEncNS, derefDecNS, derefBytes, completeEncNS  float64
	inprocP50MS                                        float64
	engineMS, engineUSPerObject, engineAllocs          float64
	planUS, parseUS, compileUS, storeGetNS, storePutUS float64
	simResponseS                                       float64
}

// Sinks keep measured results observable to the compiler.
var (
	sinkBytes []byte
	sinkMsg   wire.Msg
	sinkAny   any
)

// queryOps returns the workload's distinct queries in cycle order.
func (d *harness) queryOps() []op {
	type key struct {
		origin object.SiteID
		q      shape
	}
	seen := map[key]bool{}
	var out []op
	for _, cyc := range d.cycles {
		for _, p := range cyc {
			k := key{p.origin, p.q}
			if p.rewrite == nil && !seen[k] {
				seen[k] = true
				out = append(out, op{origin: p.origin, q: p.q})
			}
		}
	}
	return out
}

// measureLayers times each layer on the workload's own inputs. Every
// measurement gets cfg.layerBudget.
func measureLayers(cfg config, d *harness, answers map[shape]*wire.Complete, tr *tracer) (layers, error) {
	var l layers
	var err error
	ops := d.queryOps()
	spec := d.ds.spec
	budget := cfg.layerBudget

	s0 := time.Now()
	if l.pingpongUS, err = pingpong(budget); err != nil {
		return l, err
	}
	tr.record(0, 0, "transport.TCP.Send(pingpong)", "layers", s0, time.Now())

	s0 = time.Now()
	if err := measureWire(&l, ops, d.ds.root, answers, budget); err != nil {
		return l, err
	}
	tr.record(0, 0, "wire.Encode/Decode", "layers", s0, time.Now())

	s0 = time.Now()
	if l.inprocP50MS, err = inproc(spec, ops, budget); err != nil {
		return l, err
	}
	tr.record(0, 0, "cluster.LocalCluster.Exec", "layers", s0, time.Now())

	s0 = time.Now()
	if err := measureEngine(&l, spec, ops, budget); err != nil {
		return l, err
	}
	tr.record(0, 0, "engine.Engine.Run", "layers", s0, time.Now())

	s0 = time.Now()
	if l.simResponseS, err = simulate(spec, ops); err != nil {
		return l, err
	}
	tr.record(0, 0, "cluster.SimCluster.Exec", "layers", s0, time.Now())
	return l, nil
}

// timeIt returns the median time of one call to f, over batches run for
// about budget.
func timeIt(budget time.Duration, f func()) float64 {
	var per []float64
	n := 1
	end := time.Now().Add(budget)
	for len(per) < 5 || time.Now().Before(end) {
		s := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		el := time.Since(s)
		per = append(per, float64(el)/float64(n))
		if el < budget/50 {
			n *= 2
		}
	}
	return median(per)
}

// pingpong is the round trip of one small message between two bare TCP
// transport endpoints, reliable delivery and acks included, in µs.
func pingpong(budget time.Duration) (float64, error) {
	pong := make(chan struct{}, 1)
	a, err := transport.ListenTCP(1, "127.0.0.1:0", func(object.SiteID, wire.Msg) { pong <- struct{}{} })
	if err != nil {
		return 0, fmt.Errorf("pingpong: %w", err)
	}
	defer a.Close()
	var echo atomic.Pointer[transport.TCP]
	b, err := transport.ListenTCP(2, "127.0.0.1:0", func(_ object.SiteID, m wire.Msg) { _ = echo.Load().Send(1, m) })
	if err != nil {
		return 0, fmt.Errorf("pingpong: %w", err)
	}
	defer b.Close()
	echo.Store(b)
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())
	msg := &wire.Control{QID: wire.QueryID{Origin: 1, Seq: 1}, Token: []byte{1}}
	var rtts []float64
	end := time.Now().Add(budget)
	for len(rtts) < 50 || time.Now().Before(end) {
		s := time.Now()
		if err := a.Send(2, msg); err != nil {
			return 0, fmt.Errorf("pingpong: %w", err)
		}
		select {
		case <-pong:
		case <-time.After(execTimeout):
			return 0, fmt.Errorf("pingpong: no echo")
		}
		rtts = append(rtts, float64(time.Since(s))/1e3)
	}
	return median(rtts[len(rtts)/10:]), nil
}

// measureWire times the codec on the messages this workload sends: a
// one-object Deref carrying each query body, and the Complete answers the
// traced blocks received.
func measureWire(l *layers, ops []op, root object.ID, answers map[shape]*wire.Complete, budget time.Duration) error {
	per := budget / time.Duration(2*len(ops))
	for _, p := range ops {
		m := &wire.Deref{
			QID: wire.QueryID{Origin: p.origin, Seq: 1 << 40}, Origin: p.origin, Body: p.q.body(),
			ObjIDs: []object.ID{root}, Start: 1, Iters: []int{1}, Token: make([]byte, 9), Hop: 3,
		}
		enc := wire.Encode(m)
		if _, err := wire.Decode(enc); err != nil {
			return fmt.Errorf("wire: %w", err)
		}
		l.derefBytes += float64(len(enc))
		l.derefEncNS += timeIt(per, func() { sinkBytes = wire.Encode(m) })
		l.derefDecNS += timeIt(per, func() { sinkMsg, _ = wire.Decode(enc) })
	}
	n := float64(len(ops))
	l.derefBytes /= n
	l.derefEncNS /= n
	l.derefDecNS /= n

	var got []*wire.Complete
	for _, p := range ops {
		if m := answers[p.q]; m != nil {
			got = append(got, m)
		}
	}
	if len(got) == 0 {
		return fmt.Errorf("wire: no answer captured")
	}
	for _, m := range got {
		l.completeEncNS += timeIt(budget/time.Duration(2*len(got)), func() { sinkBytes = wire.Encode(m) })
	}
	l.completeEncNS /= float64(len(got))
	return nil
}

// inproc runs the same queries on the in-process cluster, whose sites
// exchange messages without encoding or sockets, and returns the median
// latency in ms.
func inproc(spec workload.Spec, ops []op, budget time.Duration) (float64, error) {
	lc := cluster.NewLocal(Sites, cluster.Options{})
	defer lc.Close()
	ds, err := buildInto(lc, spec)
	if err != nil {
		return 0, err
	}
	orc := newOracle(ds)
	orc.prepare([][]op{ops})
	chk := orc.checker()
	initial := []object.ID{ds.root}
	var lat []float64
	end := time.Now().Add(budget)
	for len(lat) < 20 || time.Now().Before(end) {
		for _, p := range ops {
			qs := time.Now()
			r, err := lc.Exec(p.origin, p.q.body(), initial, execTimeout)
			qe := time.Now()
			if err != nil {
				return 0, fmt.Errorf("in-process %s: %w", p.q.body(), err)
			}
			m := &wire.Complete{IDs: r.IDs, Fetches: r.Fetches, Count: r.Count, Distributed: r.Distributed,
				Partial: r.Partial, Unreachable: r.Unreachable, Reason: r.Reason}
			if err := chk.check(p.q, m, qs, qe); err != nil {
				return 0, fmt.Errorf("in-process %s: %w", p.q.body(), err)
			}
			lat = append(lat, ms(qe.Sub(qs)))
		}
	}
	return median(lat), nil
}

// measureEngine times the query layers on the workload's graph colocated in
// one store, averaging over the workload's queries.
func measureEngine(l *layers, spec workload.Spec, ops []op, budget time.Duration) error {
	st := store.New(1)
	colo := spec
	colo.Machines, colo.StructureMachines = 1, Sites
	ds, err := buildInto(colocated{st: st}, colo)
	if err != nil {
		return err
	}
	orc := newOracle(ds)
	per := budget / time.Duration(5*len(ops))
	initial := []object.ID{ds.root}
	for _, p := range ops {
		body := p.q.body()
		parsed, err := query.Parse(body)
		if err != nil {
			return fmt.Errorf("parse %s: %w", body, err)
		}
		compiled, err := query.Compile(parsed)
		if err != nil {
			return fmt.Errorf("compile %s: %w", body, err)
		}
		l.parseUS += timeIt(per, func() { sinkAny, _ = query.Parse(body) }) / 1e3
		l.compileUS += timeIt(per, func() { sinkAny, _ = query.Compile(parsed) }) / 1e3
		l.planUS += timeIt(per, func() { sinkAny = plan.Build(compiled, st, nil) }) / 1e3

		var stats engine.Stats
		var got object.IDSet
		runOnce := func() {
			e := engine.New(compiled, st)
			e.AddInitial(initial...)
			stats = e.Run()
			got, _ = e.TakeResults()
		}
		runOnce()
		want := orc.compute(p.q)
		if len(got) != len(want.ids) {
			return fmt.Errorf("engine %s: %d results, oracle %d", body, len(got), len(want.ids))
		}
		for id := range got {
			if !want.has[id] {
				return fmt.Errorf("engine %s: unexpected result %v", body, id)
			}
		}
		ns := timeIt(2*per, runOnce)
		l.engineMS += ns / 1e6
		l.engineUSPerObject += ns / 1e3 / float64(max(stats.Processed, 1))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const reps = 5
		for i := 0; i < reps; i++ {
			runOnce()
		}
		runtime.ReadMemStats(&m1)
		l.engineAllocs += float64(m1.Mallocs-m0.Mallocs) / reps
	}
	n := float64(len(ops))
	l.parseUS /= n
	l.compileUS /= n
	l.planUS /= n
	l.engineMS /= n
	l.engineUSPerObject /= n
	l.engineAllocs /= n

	ids := make([]object.ID, len(ds.objs))
	for i, o := range ds.objs {
		ids[i] = o.ID
	}
	rand.New(rand.NewSource(spec.Seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	l.storeGetNS = timeIt(per, func() {
		for _, id := range ids {
			sinkAny, _ = st.Get(id)
		}
	}) / float64(len(ids))
	l.storePutUS = timeIt(per, func() {
		fresh := store.New(1)
		for _, o := range ds.objs {
			_ = fresh.Put(o)
		}
	}) / 1e3 / float64(len(ds.objs))
	return nil
}

// simulate runs the workload's queries on the simulator under the paper's
// cost constants and returns the mean response time in virtual seconds.
func simulate(spec workload.Spec, ops []op) (float64, error) {
	sc := cluster.NewSim(Sites, cluster.Options{Cost: sim.Paper()})
	ds, err := buildInto(sc, spec)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, p := range ops {
		_, dur, err := sc.Exec(p.origin, p.q.body(), []object.ID{ds.root})
		if err != nil {
			return 0, fmt.Errorf("simulate %s: %w", p.q.body(), err)
		}
		total += dur
	}
	return total.Seconds() / float64(len(ops)), nil
}

// perLayer computes the traced run's metrics: counts per query from the
// servers' registries and the OS over the traced blocks, span timings, and
// the direct layer measurements.
func perLayer(tb, ub block, setups []setupTimes, ref []float64, l layers, tr *tracer) map[string]metric {
	q := float64(tb.queries)
	c := tb.reg.Counters
	perQ := func(names ...string) float64 {
		var n uint64
		for _, name := range names {
			n += c[name]
		}
		return float64(n) / q
	}
	p50 := func(name string) float64 { return float64(tb.reg.Histograms[name].Quantile(0.5)) }
	frames := float64(max(c["transport_frames_sent"], 1))
	var gen, load, conn []float64
	for _, s := range setups {
		gen = append(gen, ms(s.generate))
		load = append(load, ms(s.load))
		conn = append(conn, ms(s.listen+s.connect))
	}
	exec := median(tr.durations("server.Client.Exec"))
	tracedQPS := q / tb.elapsed.Seconds()
	untracedQPS := float64(ub.queries) / ub.elapsed.Seconds()
	return map[string]metric{
		"transport.frames_per_query":         {perQ("transport_frames_sent"), "count"},
		"transport.acks_per_query":           {perQ("transport_acks_received"), "count"},
		"transport.retransmits_per_query":    {perQ("transport_frames_retransmitted"), "count"},
		"transport.deduped_per_query":        {perQ("transport_frames_deduped"), "count"},
		"transport.dials_per_query":          {perQ("transport_connects", "transport_reconnects"), "count"},
		"transport.ack_rtt_p50_us":           {p50("transport_ack_rtt_us"), "us"},
		"transport.write_syscalls_per_frame": {float64(tb.proc.syscw) / frames, "count"},
		"transport.read_syscalls_per_frame":  {float64(tb.proc.syscr) / float64(max(c["transport_frames_received"], 1)), "count"},
		"transport.bytes_per_frame":          {float64(tb.proc.wchar) / frames, "B"},
		"transport.pingpong_us":              {l.pingpongUS, "us"},
		"wire.deref_encode_ns":               {l.derefEncNS, "ns"},
		"wire.deref_decode_ns":               {l.derefDecNS, "ns"},
		"wire.deref_bytes":                   {l.derefBytes, "B"},
		"wire.complete_encode_ns":            {l.completeEncNS, "ns"},
		"server.exec_ms":                     {exec, "ms"},
		"cluster.inproc_p50_ms":              {l.inprocP50MS, "ms"},
		"server.tcp_overhead_ms":             {exec - l.inprocP50MS, "ms"},
		"site.steps_per_query":               {perQ("site_steps"), "count"},
		"site.objects_per_query":             {perQ("site_objects_processed"), "count"},
		"site.derefs_per_query":              {perQ("site_derefs_sent"), "count"},
		"site.results_per_query":             {perQ("site_results_sent"), "count"},
		"site.controls_per_query":            {perQ("site_controls_sent"), "count"},
		"site.marks_skipped_per_query":       {perQ("site_marks_skipped"), "count"},
		"site.step_us_p50":                   {p50("site_step_us"), "us"},
		"site.quiescence_us_p50":             {p50("site_query_quiescence_us"), "us"},
		"site.compute_ms_per_query":          {float64(tb.computeUS) / 1e3 / q, "ms"},
		"site.hops_per_query":                {float64(tb.hops) / q, "count"},
		"termination.splits_per_query":       {perQ("termination_weight_splits"), "count"},
		"termination.returns_per_query":      {perQ("termination_weight_returns"), "count"},
		"engine.query_ms":                    {l.engineMS, "ms"},
		"engine.us_per_object":               {l.engineUSPerObject, "us"},
		"engine.allocs_per_query":            {l.engineAllocs, "count"},
		"plan.build_us":                      {l.planUS, "us"},
		"query.parse_us":                     {l.parseUS, "us"},
		"query.compile_us":                   {l.compileUS, "us"},
		"store.get_ns":                       {l.storeGetNS, "ns"},
		"store.put_us":                       {l.storePutUS, "us"},
		"setup.generate_ms":                  {median(gen), "ms"},
		"setup.load_ms":                      {median(load), "ms"},
		"setup.connect_ms":                   {median(conn), "ms"},
		"proc.gc_cycles_per_query":           {float64(tb.proc.numGC) / q, "count"},
		"proc.gc_pause_us_per_query":         {float64(tb.proc.gcPause) / 1e3 / q, "us"},
		"host.ref_kernel_ms":                 {median(ref), "ms"},
		"sim.paper_response_s":               {l.simResponseS, "s"},
		"client.throughput_qps":              {untracedQPS, "1/s"},
		"client.latency_p50_ms":              {quantile(ub.lat, 0.5), "ms"},
		"host.steal_pct":                     {tb.proc.add(ub.proc).stealPct(), "%"},
		"trace.overhead_pct":                 {(untracedQPS - tracedQPS) / untracedQPS * 100, "%"},
	}
}
