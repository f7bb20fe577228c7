package main

import (
	"context"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"hyperfile/internal/object"
	"hyperfile/internal/server"
	"hyperfile/internal/site"
	"hyperfile/internal/store"
	"hyperfile/internal/workload"
)

// execTimeout bounds every query; a healthy answer comes back far sooner.
const execTimeout = 30 * time.Second

// clientID is the site id of the benchmark's client endpoint.
const clientID object.SiteID = 100

// deployment is three servers and one client over loopback TCP, the same
// code hyperfiled and hfquery run, inside this process.
type deployment struct {
	servers []*server.Server
	client  *server.Client
	logs    *logCounter
}

// setupTimes splits one set-up into its phases.
type setupTimes struct {
	generate, listen, load, connect time.Duration
	// cpu is the process CPU time the whole set-up took.
	cpu time.Duration
}

// specOf is the generator spec of a workload's dataset.
func specOf(w workloadDef, seed int64) workload.Spec {
	return workload.Spec{N: w.objects, Machines: Sites, Seed: seed, PayloadBytes: w.payload}
}

// setUp generates the workload's dataset and brings up a deployment holding
// it, timing each phase up to the point the first query can be sent.
func setUp(w workloadDef, seed int64, tr *tracer) (*dataset, *deployment, setupTimes, error) {
	var st setupTimes
	root := tr.id()
	c0, err := cpuTime()
	if err != nil {
		return nil, nil, st, err
	}
	t0 := time.Now()
	ds, err := generate(specOf(w, seed))
	if err != nil {
		return nil, nil, st, err
	}
	t1 := time.Now()
	st.generate = t1.Sub(t0)
	tr.record(0, root, "workload.Build", "setup", t0, t1)

	dep := &deployment{logs: &logCounter{}}
	lg := slog.New(dep.logs)
	ids := make([]object.SiteID, Sites)
	for i := range ids {
		ids[i] = object.SiteID(i + 1)
	}
	for _, id := range ids {
		var peers []object.SiteID
		for _, p := range ids {
			if p != id {
				peers = append(peers, p)
			}
		}
		s0 := time.Now()
		srv, err := server.NewOpts(site.Config{ID: id, Store: store.New(id), Peers: peers}, "127.0.0.1:0", lg, server.Options{})
		tr.record(0, root, "server.NewOpts", "setup", s0, time.Now())
		if err != nil {
			dep.close()
			return nil, nil, st, fmt.Errorf("listen: %w", err)
		}
		dep.servers = append(dep.servers, srv)
	}
	s0 := time.Now()
	dep.client, err = server.NewClient(clientID, "127.0.0.1:0")
	tr.record(0, root, "server.NewClient", "setup", s0, time.Now())
	if err != nil {
		dep.close()
		return nil, nil, st, fmt.Errorf("listen: %w", err)
	}
	t2 := time.Now()
	st.listen = t2.Sub(t1)

	bySite := make([][]*object.Object, Sites)
	for i, o := range ds.objs {
		bySite[ds.site(i)-1] = append(bySite[ds.site(i)-1], o)
	}
	for i, srv := range dep.servers {
		s0 := time.Now()
		err := srv.LoadObjects(bySite[i])
		tr.record(0, root, "server.Server.LoadObjects", "setup", s0, time.Now())
		if err != nil {
			dep.close()
			return nil, nil, st, fmt.Errorf("load: %w", err)
		}
	}
	t3 := time.Now()
	st.load = t3.Sub(t2)

	for _, a := range dep.servers {
		for _, b := range dep.servers {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
		dep.client.AddServer(a.ID(), a.Addr())
		a.AddPeer(clientID, dep.client.Addr())
	}
	// A stats round trip to every server dials the client's connections.
	for _, srv := range dep.servers {
		s0 := time.Now()
		_, err := dep.client.Stats(srv.ID(), execTimeout)
		tr.record(0, root, "server.Client.Stats", "setup", s0, time.Now())
		if err != nil {
			dep.close()
			return nil, nil, st, fmt.Errorf("connect: %w", err)
		}
	}
	t4 := time.Now()
	st.connect = t4.Sub(t3)
	c4, err := cpuTime()
	if err != nil {
		dep.close()
		return nil, nil, st, err
	}
	st.cpu = c4 - c0
	tr.record(root, 0, "setup", "setup", t0, t4)
	return ds, dep, st, nil
}

// liveContexts sums the query contexts the servers still hold.
func (d *deployment) liveContexts() (uint64, error) {
	var n uint64
	for _, srv := range d.servers {
		resp, err := d.client.Stats(srv.ID(), execTimeout)
		if err != nil {
			return 0, fmt.Errorf("stats %v: %w", srv.ID(), err)
		}
		n += resp.Contexts
	}
	return n, nil
}

func (d *deployment) close() {
	if d.client != nil {
		d.client.Close()
	}
	for _, srv := range d.servers {
		srv.Close()
	}
}

// logCounter discards the servers' log output, which would otherwise be
// written during the measured window, and counts warnings and errors.
type logCounter struct{ n atomic.Int64 }

func (l *logCounter) Enabled(_ context.Context, lv slog.Level) bool { return lv >= slog.LevelWarn }

func (l *logCounter) Handle(context.Context, slog.Record) error {
	l.n.Add(1)
	return nil
}

func (l *logCounter) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l *logCounter) WithGroup(string) slog.Handler      { return l }
