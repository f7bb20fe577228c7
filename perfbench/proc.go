package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hyperfile/internal/metrics"
)

// proc is a snapshot of the process-wide costs the OS and the Go runtime
// count. Every site and the client live in this process, so the deltas
// cover the whole deployment.
type proc struct {
	cpu                 time.Duration // user + system
	syscr, syscw, wchar uint64
	mallocs, allocBytes uint64
	numGC               uint64
	gcPause             time.Duration
	// The host's CPU ticks and the share of them the hypervisor stole
	// (/proc/stat); steal is time the sites wanted to run and could not.
	hostTicks, stealTicks uint64
}

// cpuTime is the process's user plus system time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func readProc() (proc, error) {
	var p proc
	var err error
	if p.cpu, err = cpuTime(); err != nil {
		return p, err
	}
	if p.hostTicks, p.stealTicks, err = hostTicks(); err != nil {
		return p, err
	}
	io, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return p, fmt.Errorf("read io counters: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(io))
	for sc.Scan() {
		name, val, ok := bytes.Cut(sc.Bytes(), []byte(": "))
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(string(val), 10, 64)
		if err != nil {
			return p, fmt.Errorf("io counter %s: %w", name, err)
		}
		switch string(name) {
		case "syscr":
			p.syscr = n
		case "syscw":
			p.syscw = n
		case "wchar":
			p.wchar = n
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs, p.allocBytes = ms.Mallocs, ms.TotalAlloc
	p.numGC, p.gcPause = uint64(ms.NumGC), time.Duration(ms.PauseTotalNs)
	return p, nil
}

// hostTicks reads the aggregate CPU line of /proc/stat: all ticks spent
// (user through steal) and the stolen ones.
func hostTicks() (total, steal uint64, err error) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("read cpu ticks: %w", err)
	}
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("read cpu ticks: unexpected %q", line)
	}
	for i := 1; i <= 8; i++ {
		n, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("read cpu ticks: %w", err)
		}
		total += n
		if i == 8 {
			steal = n
		}
	}
	return total, steal, nil
}

// stealPct is the share of the host's CPU time stolen over p's interval.
func (p proc) stealPct() float64 {
	return float64(p.stealTicks) / float64(max(p.hostTicks, 1)) * 100
}

func (p proc) sub(q proc) proc {
	return proc{
		cpu: p.cpu - q.cpu, syscr: p.syscr - q.syscr, syscw: p.syscw - q.syscw, wchar: p.wchar - q.wchar,
		mallocs: p.mallocs - q.mallocs, allocBytes: p.allocBytes - q.allocBytes,
		numGC: p.numGC - q.numGC, gcPause: p.gcPause - q.gcPause,
		hostTicks: p.hostTicks - q.hostTicks, stealTicks: p.stealTicks - q.stealTicks,
	}
}

func (p proc) add(q proc) proc {
	return proc{
		cpu: p.cpu + q.cpu, syscr: p.syscr + q.syscr, syscw: p.syscw + q.syscw, wchar: p.wchar + q.wchar,
		mallocs: p.mallocs + q.mallocs, allocBytes: p.allocBytes + q.allocBytes,
		numGC: p.numGC + q.numGC, gcPause: p.gcPause + q.gcPause,
		hostTicks: p.hostTicks + q.hostTicks, stealTicks: p.stealTicks + q.stealTicks,
	}
}

// liveHeapMiB is the heap still reachable after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// refSink keeps the reference kernel's result observable.
var refSink uint64

// refKernel times a fixed integer kernel that no change to the program can
// speed up or slow down: its drift between runs is the host's.
func refKernel() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
	return time.Since(start)
}

// quantile returns the nearest-rank q-quantile of vals, sorting them.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	r := int(float64(len(vals))*q+0.999999999) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(vals) {
		r = len(vals) - 1
	}
	return vals[r]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// snapshotAll sums the registries of every server.
func (d *deployment) snapshotAll() metrics.Snapshot {
	var sum metrics.Snapshot
	for i, srv := range d.servers {
		s := srv.Metrics().Snapshot()
		if i == 0 {
			sum = s
		} else {
			sum = sum.Add(s)
		}
	}
	return sum
}
