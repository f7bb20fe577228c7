package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times the deployment is set up; setup_s is the
	// median and the last one is measured.
	setups int
	// warmup runs unmeasured cycles first, so pools and caches are filled.
	warmup time.Duration
	// layerBudget is the time each per-layer measurement may take.
	layerBudget time.Duration
	// out is the directory the traced run writes its spans to.
	out string
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// blocksPerRun splits the measured window. Between blocks the clients stop
// and the host reference kernel is timed; a traced run alternates untraced
// and traced blocks so both see the same host drift.
func blocksPerRun(traced bool) int {
	if traced {
		return 8
	}
	return 2
}

// run sets the workload up, drives it for cfg.seconds, checks every answer
// and returns the metrics. Progress and diagnostics go to log.
func run(cfg config, log io.Writer) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var setups []setupTimes
	var ds *dataset
	var dep *deployment
	for i := 0; i < cfg.setups; i++ {
		if dep != nil {
			dep.close()
		}
		runtime.GC()
		var st setupTimes
		ds, dep, st, err = setUp(w, cfg.seed, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st)
	}
	defer dep.close()

	d := newHarness(w, cfg.seed, ds, dep)
	warm, err := d.runBlock(cfg.warmup, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: warm.ops, Failed: warm.failed}

	n := blocksPerRun(cfg.trace)
	dur := time.Duration(cfg.seconds * float64(time.Second) / float64(n))
	ref := []float64{ms(refKernel())}
	var blocks []block
	for i := 0; i < n; i++ {
		var btr *tracer
		if cfg.trace && i%2 == 1 {
			btr = tr
		}
		b, err := d.runBlock(dur, btr)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
		res.Attempted += b.ops
		res.Failed += b.failed
		ref = append(ref, ms(refKernel()))
		fmt.Fprintf(log, "block %d traced=%v: %d queries in %.3fs, %.2f qps, %.3f cpu ms/query, %.1f%% of host CPU stolen, reference kernel %.3f ms\n",
			i, b.traced, b.queries, b.elapsed.Seconds(), float64(b.queries)/b.elapsed.Seconds(),
			ms(b.proc.cpu)/float64(max(b.queries, 1)), b.proc.stealPct(), ref[len(ref)-1])
	}
	heap := liveHeapMiB()
	live, err := dep.liveContexts()
	if err != nil {
		return nil, err
	}
	if live != 0 {
		res.Correct = false
		fmt.Fprintf(log, "perfbench: %d query contexts still live after the run\n", live)
	}
	if n := dep.logs.n.Load(); n != 0 {
		fmt.Fprintf(log, "perfbench: servers logged %d warnings or errors\n", n)
	}
	for _, e := range d.errs {
		fmt.Fprintf(log, "perfbench: failed: %s\n", e)
	}
	fmt.Fprintf(log, "host.ref_kernel_ms %.4f\n", median(ref))

	untraced := merge(blocks, false)
	if untraced.queries == 0 {
		return nil, fmt.Errorf("no query completed in %v", cfg.seconds)
	}
	fmt.Fprintf(log, "latency ms over %d queries: p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f max %.3f\n", len(untraced.lat),
		quantile(untraced.lat, 0.5), quantile(untraced.lat, 0.9), quantile(untraced.lat, 0.99),
		quantile(untraced.lat, 0.999), quantile(untraced.lat, 1))
	if !cfg.trace {
		res.Metrics = endToEnd(untraced, setups, heap)
		return res, nil
	}
	traced := merge(blocks, true)
	if traced.queries == 0 {
		return nil, fmt.Errorf("no traced query completed")
	}
	lm, err := measureLayers(cfg, d, traced.last, tr)
	if err != nil {
		return nil, err
	}
	res.Metrics = perLayer(traced, untraced, setups, ref, lm, tr)
	if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))); err != nil {
		return nil, err
	}
	return res, nil
}

// merge sums the traced or the untraced blocks.
func merge(blocks []block, traced bool) block {
	var m block
	for _, b := range blocks {
		if b.traced != traced {
			continue
		}
		m.elapsed += b.elapsed
		m.queries += b.queries
		m.ops += b.ops
		m.failed += b.failed
		m.lat = append(m.lat, b.lat...)
		m.computeUS += b.computeUS
		m.hops += b.hops
		m.proc = m.proc.add(b.proc)
		if m.reg.Counters == nil {
			m.reg = b.reg
		} else {
			m.reg = m.reg.Add(b.reg)
		}
		if b.last != nil {
			m.last = b.last
		}
	}
	m.traced = traced
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEnd computes the metrics a user of the system sees.
func endToEnd(b block, setups []setupTimes, heap float64) map[string]metric {
	q := float64(b.queries)
	var cpu []float64
	for _, s := range setups {
		cpu = append(cpu, s.cpu.Seconds())
	}
	return map[string]metric{
		"cpu_ms_per_query":     {ms(b.proc.cpu) / q, "ms"},
		"syscalls_per_query":   {float64(b.proc.syscr+b.proc.syscw) / q, "count"},
		"wire_bytes_per_query": {float64(b.proc.wchar) / q, "B"},
		"allocs_per_query":     {float64(b.proc.mallocs) / q, "count"},
		"alloc_kib_per_query":  {float64(b.proc.allocBytes) / 1024 / q, "KiB"},
		"live_heap_mib":        {heap, "MiB"},
		"setup_s":              {median(cpu), "s"},
	}
}
