package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/wire"
)

// oracle computes every answer from the generated objects alone — a
// breadth-first search over their pointer tuples and a predicate over their
// tuples — and checks the program's answers against it.
type oracle struct {
	ds      *dataset
	answers map[shape]*answer

	mu       sync.Mutex
	payloads [][]version // logical index -> payload history, oldest first
}

// answer is the expected result set of one query shape.
type answer struct {
	ids []object.ID
	has map[object.ID]bool
}

// version is one payload an object held; start and end bound the
// LoadObjects call that installed it (zero for the generated payload).
type version struct {
	data       []byte
	start, end time.Time
}

func newOracle(ds *dataset) *oracle {
	o := &oracle{ds: ds, answers: map[shape]*answer{}, payloads: make([][]version, len(ds.objs))}
	for i, obj := range ds.objs {
		if data, ok := payloadOf(obj); ok {
			o.payloads[i] = []version{{data: data}}
		}
	}
	return o
}

// payloadOf returns the bytes of an object's (Text, "body") tuple.
func payloadOf(o *object.Object) ([]byte, bool) {
	for _, t := range o.Tuples {
		if t.Type == "Text" && t.Key.Kind == object.KindString && t.Key.Str == "body" && t.Data.Kind == object.KindBytes {
			return t.Data.Bytes, true
		}
	}
	return nil, false
}

// prepare computes the answers of every shape in the cycles up front, so
// the map is read-only while clients run.
func (o *oracle) prepare(cycles [][]op) {
	for _, cyc := range cycles {
		for _, p := range cyc {
			if p.rewrite == nil {
				if _, ok := o.answers[p.q]; !ok {
					o.answers[p.q] = o.compute(p.q)
				}
			}
		}
	}
}

// compute evaluates a shape over the generated objects: every object the
// closure reaches from the root that carries a pointer of the traversed
// type (the closure body's selection) and the (Class, Key) tuple.
func (o *oracle) compute(q shape) *answer {
	objs := o.ds.objs
	seen := make([]bool, len(objs))
	start := o.ds.index[o.ds.root]
	seen[start] = true
	queue := []int{start}
	a := &answer{has: map[object.ID]bool{}}
	for len(queue) > 0 {
		obj := objs[queue[0]]
		queue = queue[1:]
		traversed, selected := false, false
		for _, t := range obj.Tuples {
			switch {
			case t.Type == "Pointer" && t.Key.Kind == object.KindString && t.Key.Str == q.PtrKey && t.Data.Kind == object.KindPointer:
				traversed = true
				if j, ok := o.ds.index[t.Data.Ptr]; ok && !seen[j] {
					seen[j] = true
					queue = append(queue, j)
				}
			case t.Type == q.Class && t.Key.Kind == object.KindInt && t.Key.Int == int64(q.Key):
				selected = true
			}
		}
		if traversed && selected && (!q.Fetch || o.payloads[o.ds.index[obj.ID]] != nil) {
			a.ids = append(a.ids, obj.ID)
			a.has[obj.ID] = true
		}
	}
	sort.Slice(a.ids, func(i, j int) bool { return a.ids[i].Less(a.ids[j]) })
	return a
}

// checker is one client's answer checker; its scratch makes duplicate
// detection allocation-free.
type checker struct {
	o    *oracle
	seen []uint32
	gen  uint32
}

func (o *oracle) checker() *checker { return &checker{o: o, seen: make([]uint32, len(o.ds.objs))} }

// check verifies one answer issued over [qs, qe]: the properties every
// complete answer has, the id set against the oracle, and each retrieved
// payload byte for byte against a version the object held in that interval.
func (c *checker) check(q shape, m *wire.Complete, qs, qe time.Time) error {
	switch {
	case m.Partial || m.Reason != "":
		return fmt.Errorf("partial answer (%q)", m.Reason)
	case len(m.Unreachable) > 0:
		return fmt.Errorf("unreachable sites %v", m.Unreachable)
	case m.Distributed:
		return fmt.Errorf("distributed answer")
	case m.Count != len(m.IDs):
		return fmt.Errorf("count %d != %d ids", m.Count, len(m.IDs))
	}
	want := c.o.answers[q]
	if len(m.IDs) != len(want.ids) {
		return fmt.Errorf("%d ids, want %d", len(m.IDs), len(want.ids))
	}
	c.gen++
	for _, id := range m.IDs {
		if err := c.mark(want, id); err != nil {
			return err
		}
	}
	if !q.Fetch {
		if len(m.Fetches) != 0 {
			return fmt.Errorf("%d unrequested fetches", len(m.Fetches))
		}
		return nil
	}
	if len(m.Fetches) != len(want.ids) {
		return fmt.Errorf("%d fetches, want %d", len(m.Fetches), len(want.ids))
	}
	c.gen++
	for _, f := range m.Fetches {
		if f.Var != "D" || f.Val.Kind != object.KindBytes {
			return fmt.Errorf("fetch %s from %v is not a D payload", f.Var, f.From)
		}
		if err := c.mark(want, f.From); err != nil {
			return fmt.Errorf("fetch: %w", err)
		}
		if !c.o.heldPayload(c.o.ds.index[f.From], f.Val.Bytes, qs, qe) {
			return fmt.Errorf("payload of %v (%d B) matches no version it held", f.From, len(f.Val.Bytes))
		}
	}
	return nil
}

// mark records id as seen in this pass, rejecting ids outside the answer
// and repeats.
func (c *checker) mark(want *answer, id object.ID) error {
	if !want.has[id] {
		return fmt.Errorf("unexpected id %v", id)
	}
	i := c.o.ds.index[id]
	if c.seen[i] == c.gen {
		return fmt.Errorf("duplicate id %v", id)
	}
	c.seen[i] = c.gen
	return nil
}

// heldPayload reports whether object i held data at some instant of
// [qs, qe]: a version counts if its install began before qe and its
// successor's install had not finished by qs.
func (o *oracle) heldPayload(i int, data []byte, qs, qe time.Time) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	vs := o.payloads[i]
	for k, v := range vs {
		if v.start.After(qe) {
			break
		}
		if k+1 < len(vs) && !vs[k+1].end.IsZero() && vs[k+1].end.Before(qs) {
			continue
		}
		if bytes.Equal(v.data, data) {
			return true
		}
	}
	return false
}

// beginRewrite records that object i is about to be given data and returns
// the rewritten object.
func (o *oracle) beginRewrite(i int, data []byte, now time.Time) *object.Object {
	src := o.ds.objs[i]
	obj := &object.Object{ID: src.ID, Tuples: make([]object.Tuple, len(src.Tuples))}
	copy(obj.Tuples, src.Tuples)
	for k, t := range obj.Tuples {
		if t.Type == "Text" {
			obj.Tuples[k].Data = object.Bytes(data)
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	vs := o.payloads[i]
	// A query running longer than execTimeout fails anyway, so versions
	// superseded before then can match nothing that passes.
	for len(vs) > 1 && vs[1].end.Before(now.Add(-execTimeout)) {
		vs = vs[1:]
	}
	o.payloads[i] = append(vs, version{data: data, start: now})
	return obj
}

// endRewrite closes the install interval of object i's newest version.
func (o *oracle) endRewrite(i int, now time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	vs := o.payloads[i]
	vs[len(vs)-1].end = now
}
