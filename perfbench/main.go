// Command perfbench is the repository's benchmark: it drives the real
// serving stack (a copnet.Server tenant behind loopback TLS with HTTP/2)
// closed-loop from copnet.Client workers, checks every get against a
// seeded shadow model, and prints one JSON result line.
//
// With --trace 0 it reports the end-to-end metrics of one served run. With
// --trace 1 it replays the same seeded op stream down a ladder of rungs
// (copnet client, shard.Batched windows, memctrl.Controller calls, the
// harness alone), times codec and compressor calls on the workload's own
// blocks, and reports per-layer metrics: each layer's CPU cost is the
// difference between adjacent rungs on identical data.
//
// Usage, from the repository root (run.sh builds, then runs):
//
//	sh perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
//	sh perfbench/run.sh --workload all --trace 1   # one row per workload
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics, measured with tracing off.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"frame_p50_us", "us"},
	{"frame_p95_us", "us"},
	{"cpu_ns_per_op", "ns"},
	{"compressed_frac", "ratio"},
	{"region_overhead_frac", "ratio"},
	{"heap_mib", "MiB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit code: 0 only
// when every op succeeded, every get matched the shadow model and every
// consistency check held.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload name: hot-read, cold-read, cold-write, or all for one row per workload")
		seed     = fs.Uint64("seed", 1, "workload seed: op stream and block content")
		seconds  = fs.Float64("seconds", 10, "timed interval of one run")
		traced   = fs.Int("trace", 0, "1: run the traced ladder and report per-layer metrics")
		traceOut = fs.String("trace-out", ".bench_build/traces", "directory for the ladder's Chrome trace-event JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(procs)
	cfg := runConfig{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		flipKey:  -1,
	}
	if *name == "all" {
		return table(cfg, *traced == 1, *traceOut, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg.w = w
	return execute(cfg, *traced == 1, *traceOut, stdout, stderr)
}

// table runs every workload and prints one row per workload, each metric
// a column headed by its name and unit.
func table(cfg runConfig, traced bool, traceOut string, stdout, stderr io.Writer) int {
	defs := append([]metricDef{{"failed_frac", "ratio"}}, e2eMetrics...)
	if traced {
		defs = append(defs[:1], layerMetrics...)
	}
	fmt.Fprintf(stdout, "%-10s", "workload")
	for _, d := range defs {
		fmt.Fprintf(stdout, " %*s", max(12, len(d.name)+len(d.unit)+2), d.name+"["+d.unit+"]")
	}
	fmt.Fprintln(stdout)
	code := 0
	for _, w := range workloads {
		cfg.w = w
		var out bytes.Buffer
		c := execute(cfg, traced, traceOut, &out, stderr)
		code = max(code, c)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stdout, "%-10s no result (exit %d)\n", w.Name, c)
			continue
		}
		res.Metrics["failed_frac"] = metric{Value: ratio(float64(res.Failed), float64(res.Attempted))}
		fmt.Fprintf(stdout, "%-10s", w.Name)
		for _, d := range defs {
			fmt.Fprintf(stdout, " %*.6g", max(12, len(d.name)+len(d.unit)+2), res.Metrics[d.name].Value)
		}
		fmt.Fprintln(stdout)
	}
	return code
}

// execute runs cfg served (or, with traced, down the ladder), prints the
// result and returns report's exit code.
func execute(cfg runConfig, traced bool, traceOut string, stdout, stderr io.Writer) int {
	w := cfg.w
	fmt.Fprintf(stdout, "perfbench: workload=%s profile=%s blocks=%d mix=%v scheme=%s seed=%d workers=%d window=%d GOMAXPROCS=%d\n",
		w.Name, w.Profile, w.Blocks, w.Mix, w.Scheme, cfg.seed, clientWorkers(), windowOps, runtime.GOMAXPROCS(0))

	if traced {
		lr, err := runLadder(cfg, traceOut, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return report(lr.result(), lr.problems, stdout, stderr)
	}
	er, err := runServed(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench: %d frame samples: p50 %.1f us, p95 %.1f us, p99 %.1f us (%d beyond); oracle mismatches %d\n",
		er.frames, er.frameP50us, er.frameP95us, er.frameP99us, er.beyondP99, er.mismatches)
	return report(er.result(), er.problems, stdout, stderr)
}

// report prints res after any failed consistency checks and returns the
// exit code: 0 only when no op failed and every check held.
func report(res result, problems []string, stdout, stderr io.Writer) int {
	for _, p := range problems {
		fmt.Fprintln(stdout, "perfbench: CHECK FAILED:", p)
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// result renders a served run: failed counts op errors, ops in failed
// frames and oracle mismatches together.
func (r *e2eResult) result() result {
	vals := map[string]float64{
		"setup_s":              r.setupS,
		"throughput_ops_s":     r.throughput,
		"frame_p50_us":         r.frameP50us,
		"frame_p95_us":         r.frameP95us,
		"cpu_ns_per_op":        r.cpuNsPerOp,
		"compressed_frac":      r.compressedFrac,
		"region_overhead_frac": r.regionFrac,
		"heap_mib":             r.heapMiB,
	}
	return result{
		Attempted: r.attempted,
		Failed:    r.failed + r.mismatches,
		Metrics:   collect(e2eMetrics, vals),
	}
}

func collect(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// printResult prints one human-readable row per metric, then the result
// object as the last line.
func printResult(w io.Writer, res result) error {
	fmt.Fprintf(w, "perfbench: attempted=%d failed=%d failed_frac=%g\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, defs := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
