package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/wire"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// quick is a short run of one workload with a seed the benchmark is not
// tuned on.
func quick(name string, trace bool) config {
	return config{
		workload: name, seed: 2, seconds: 0.6, trace: trace, setups: 1,
		warmup: 100 * time.Millisecond, layerBudget: 20 * time.Millisecond,
	}
}

// TestWorkloadsWithSecondSeed runs every workload briefly, untraced and
// traced, with the oracle checking every answer, and checks that the
// metrics printed are exactly those BENCHMARK.json names, with its units.
func TestWorkloadsWithSecondSeed(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := quick(w.Name, trace)
			cfg.out = t.TempDir()
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if got := names(res.Metrics); !equal(got, want) {
				t.Errorf("%s trace=%v: printed %v, BENCHMARK.json names %v", w.Name, trace, got, want)
			}
		}
	}
}

func names(ms map[string]metric) map[string]string {
	out := map[string]string{}
	for k, v := range ms {
		out[k] = v.Unit
	}
	return out
}

func equal(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestOracleRejectsCorruptAnswers takes a real answer from the TCP
// deployment, checks that the oracle accepts it, and that it rejects the
// same answer with one id dropped, one id added, or one payload byte
// flipped.
func TestOracleRejectsCorruptAnswers(t *testing.T) {
	w := workloadDef{name: "small", objects: 90, payload: 64, clients: 1}
	ds, dep, _, err := setUp(w, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.close()
	orc := newOracle(ds)
	var q shape
	for k := 1; k <= 10; k++ {
		q = shape{PtrKey: "Rand50", Class: "Rand10", Key: k, Fetch: true}
		if len(orc.compute(q).ids) >= 2 {
			break
		}
	}
	orc.prepare([][]op{{{origin: 2, q: q}}})
	chk := orc.checker()
	qs := time.Now()
	m, err := dep.client.Exec(2, q.body(), []object.ID{ds.root}, execTimeout)
	qe := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.check(q, m, qs, qe); err != nil {
		t.Fatalf("oracle rejects the program's answer: %v", err)
	}
	if len(m.IDs) < 2 {
		t.Fatalf("answer too small to corrupt: %d ids", len(m.IDs))
	}

	dropped := clone(m)
	dropped.IDs = dropped.IDs[1:]
	dropped.Count--

	added := clone(m)
	for _, o := range ds.objs {
		if !orc.answers[q].has[o.ID] {
			added.IDs = append(added.IDs, o.ID)
			added.Count++
			break
		}
	}

	flipped := clone(m)
	b := append([]byte(nil), flipped.Fetches[0].Val.Bytes...)
	b[len(b)/2] ^= 0x01
	flipped.Fetches[0].Val = object.Bytes(b)

	for name, bad := range map[string]*wire.Complete{"dropped id": dropped, "added id": added, "flipped byte": flipped} {
		if err := chk.check(q, bad, qs, qe); err == nil {
			t.Errorf("oracle accepts an answer with a %s", name)
		}
	}
}

func clone(m *wire.Complete) *wire.Complete {
	c := *m
	c.IDs = append([]object.ID(nil), m.IDs...)
	c.Fetches = append([]wire.FetchVal(nil), m.Fetches...)
	return &c
}

// TestPayloadVersions checks the oracle's view of rewritten payloads: a
// query overlapping a rewrite may see either version, a later one only the
// new one.
func TestPayloadVersions(t *testing.T) {
	w := workloadDef{objects: 9, payload: 4}
	ds, err := generate(specOf(w, 1))
	if err != nil {
		t.Fatal(err)
	}
	orc := newOracle(ds)
	old, _ := payloadOf(ds.objs[0])
	t0 := time.Now()
	orc.beginRewrite(0, []byte("new"), t0.Add(time.Second))
	orc.endRewrite(0, t0.Add(2*time.Second))
	cases := []struct {
		qs, qe   time.Duration
		old, new bool
	}{
		{0, 500 * time.Millisecond, true, false},
		{0, 1500 * time.Millisecond, true, true},
		{1500 * time.Millisecond, 3 * time.Second, true, true},
		{3 * time.Second, 4 * time.Second, false, true},
	}
	for _, c := range cases {
		qs, qe := t0.Add(c.qs), t0.Add(c.qe)
		if got := orc.heldPayload(0, old, qs, qe); got != c.old {
			t.Errorf("[%v,%v]: old payload held = %v, want %v", c.qs, c.qe, got, c.old)
		}
		if got := orc.heldPayload(0, []byte("new"), qs, qe); got != c.new {
			t.Errorf("[%v,%v]: new payload held = %v, want %v", c.qs, c.qe, got, c.new)
		}
	}
}

// TestSameSeedSameInputs pins that inputs depend on the seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	w, err := findWorkload("mixed_rw")
	if err != nil {
		t.Fatal(err)
	}
	a, err := generate(specOf(w, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(specOf(w, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.objs {
		if a.objs[i].String() != b.objs[i].String() {
			t.Fatalf("object %d differs between two generations with one seed", i)
		}
	}
	for c := 0; c < w.clients; c++ {
		x, y := w.cycle(5, c), w.cycle(5, c)
		if len(x) != len(y) {
			t.Fatalf("client %d cycle length differs", c)
		}
		for i := range x {
			if x[i].q != y[i].q || x[i].origin != y[i].origin || len(x[i].rewrite) != len(y[i].rewrite) {
				t.Fatalf("client %d op %d differs", c, i)
			}
		}
	}
}

func TestFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "tree_scan", "--seed", "9", "--seconds", "30", "--trace", "1"}, io.Discard)
	if err != nil || cfg.workload != "tree_scan" || cfg.seed != 9 || cfg.seconds != 30 || !cfg.trace {
		t.Fatalf("parseFlags = %+v, %v", cfg, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "chain_hops", "--trace", "2"},
		{"--workload", "chain_hops", "--seconds", "0"},
	} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("parseFlags(%v) accepted", bad)
		}
	}
}
