// Command svcbench is the repository's service benchmark. It boots arteryd
// in-process on ephemeral ports (one in-memory node, or a journaled
// coordinator over two backends), drives it closed-loop from one process
// with GOMAXPROCS clients, checks every streamed event and result, and
// prints client-observed end-to-end metrics (untraced run) or per-layer
// metrics (traced run). See README.md for the metric and workload map.
//
// Usage:
//
//	bash svcbench/run.sh --workload sweep-small --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// run's report (provenance, result digest, input properties and, when
// traced, per-layer span times). The exit code is 1 when a correctness
// check failed and 2 when the benchmark could not run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// toy shrinks jobs, warm-up, set-up repeats and replay; the
	// self-test sets it.
	toy    bool
	outDir string
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "sweep-small", "workload: sweep-small, surface-tableau or fleet-durable")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same requests")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics, 0 = untraced run printing the end-to-end metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/svcbench", "directory for spans, profiles and scratch journals")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "svcbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := run(ctx, o, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svcbench: %v\n", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// printResult writes the report line and then the result line.
func printResult(w io.Writer, rep *report, res result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]*report{"report": rep}); err != nil {
		return err
	}
	return enc.Encode(res)
}
