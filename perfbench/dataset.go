package main

import (
	"fmt"

	"hyperfile/internal/object"
	"hyperfile/internal/store"
	"hyperfile/internal/workload"
)

// dataset is one workload's generated input: the objects exactly as the
// generator produced them.
type dataset struct {
	spec  workload.Spec
	root  object.ID
	objs  []*object.Object // logical index -> object
	index map[object.ID]int
}

// site returns the server site logical object i is placed on.
func (d *dataset) site(i int) object.SiteID { return object.SiteID(i%Sites + 1) }

// generate runs the section-5 generator for spec without storing anything:
// the objects go to the servers later, through Server.LoadObjects.
func generate(spec workload.Spec) (*dataset, error) {
	ids := idStores{}
	for i := 1; i <= Sites; i++ {
		ids[object.SiteID(i)] = store.New(object.SiteID(i))
	}
	return buildInto(ids, spec)
}

// buildInto generates spec into p and returns the objects as generated.
// Every store clones what it is given, so the kept objects stay pristine.
func buildInto(p workload.Placer, spec workload.Spec) (*dataset, error) {
	rec := &recorder{Placer: p}
	gen, err := workload.Build(rec, spec)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	ds := &dataset{spec: spec, root: gen.Root, objs: rec.objs, index: make(map[object.ID]int, len(rec.objs))}
	for i, o := range ds.objs {
		if o.ID != gen.IDs[i] {
			return nil, fmt.Errorf("generate: object %d stored out of order", i)
		}
		ds.index[o.ID] = i
	}
	return ds, nil
}

// recorder passes generated objects on to a placer and keeps them.
type recorder struct {
	workload.Placer
	objs []*object.Object
}

func (r *recorder) Put(id object.SiteID, o *object.Object) error {
	r.objs = append(r.objs, o)
	return r.Placer.Put(id, o)
}

// idStores only allocates ids for the generator; it stores nothing.
type idStores map[object.SiteID]*store.Store

func (s idStores) Sites() []object.SiteID {
	ids := make([]object.SiteID, 0, len(s))
	for i := 1; i <= len(s); i++ {
		ids = append(ids, object.SiteID(i))
	}
	return ids
}

func (s idStores) Store(id object.SiteID) *store.Store     { return s[id] }
func (s idStores) Put(object.SiteID, *object.Object) error { return nil }

// colocated places every object in one store: the paper's device of
// running the same graph (StructureMachines sites) on a single site.
type colocated struct{ st *store.Store }

func (c colocated) Sites() []object.SiteID                      { return []object.SiteID{1} }
func (c colocated) Store(object.SiteID) *store.Store            { return c.st }
func (c colocated) Put(_ object.SiteID, o *object.Object) error { return c.st.Put(o) }
