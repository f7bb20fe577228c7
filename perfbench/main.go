// Command perfbench is HyperFile's end-to-end query benchmark. It starts
// three server sites and one client over loopback TCP inside its own
// process, drives one workload in a closed loop, checks every answer
// against an oracle computed from the generated objects alone, and prints
// the metrics as one JSON line.
//
// Usage:
//
//	perfbench --workload chain_hops --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it instead alternates untraced and traced blocks, times
// each layer on the workload's inputs, prints the per-layer metrics and
// writes the spans it recorded under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string, errOut io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	cfg := config{setups: 9, warmup: time.Second, layerBudget: 500 * time.Millisecond}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: chain_hops, tree_scan or mixed_rw")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = trace != 0
	var err error
	switch {
	case cfg.seconds <= 0:
		err = fmt.Errorf("--seconds must be positive")
	case trace != 0 && trace != 1:
		err = fmt.Errorf("--trace must be 0 or 1")
	default:
		_, err = findWorkload(cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
	}
	return cfg, err
}
