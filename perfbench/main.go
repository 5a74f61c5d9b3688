// Command perfbench is the repository benchmark. It runs one named
// workload against the code in the current checkout and prints every
// metric by name with its unit, a full record line, and, last, the
// one-line JSON result:
//
//	perfbench run --workload serve-steady --seed 1 --seconds 10 --trace 0 --bin DIR --work DIR
//	perfbench compare A.out B.out
//
// perfbench/run.py builds this binary and the daemons, then runs it.
// See perfbench/README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// endToEnd and perLayer are the metrics the final JSON line carries,
// in untraced (--trace 0) and traced (--trace 1) runs respectively.
// They are the names BENCHMARK.json lists; every workload reports all
// of them.
var endToEnd = []string{
	"visible_ms_p50", "nnz_per_s", "peak_mem_mib", "setup_s",
}

var perLayer = []string{
	"core.solve_ms_p50", "core.iters_mean",
	"core.phase.mttkrp_ms", "core.phase.gram_ms", "core.phase.update_ms",
	"core.phase.inverse_ms", "core.phase.historical_ms", "core.phase.error_ms",
	"core.phase.pre_ms", "core.phase.post_ms", "core.phase.misc_ms",
	"publish.snapshot_ms",
	"mttkrp.kernel_gbps", "mttkrp.roofline_frac", "host.stream_gbps",
	"trace.uncovered_frac",
}

var workloads = []string{"serve-steady", "serve-burst-sharded", "replay-skewed", "replay-ooc-nonneg"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Err  string `json:"error,omitempty"`
}

// result collects one run's metrics and check outcomes. Every output
// check and validity check is one attempted unit; a failing one is a
// failed unit.
type result struct {
	workload  string
	metrics   map[string]metric
	checks    []outcome
	validOut  []outcome
	attempted int
	failed    int
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// check records an output check; a non-nil err fails it.
func (r *result) check(name string, err error) {
	o := outcome{Name: name, OK: err == nil}
	if err != nil {
		o.Err = err.Error()
		r.failed++
	}
	r.attempted++
	r.checks = append(r.checks, o)
}

// validity records a run-validity condition. A run that breaks one is
// invalid, not slow.
func (r *result) validity(name string, ok bool) {
	r.validOut = append(r.validOut, outcome{Name: name, OK: ok})
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *result) correct() bool {
	for _, o := range append(append([]outcome(nil), r.checks...), r.validOut...) {
		if !o.OK {
			return false
		}
	}
	return true
}

// finish derives the failed share.
func (r *result) finish() {
	r.set("failed_frac", float64(r.failed)/float64(r.attempted), "share")
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: perfbench run --workload NAME --seed N --seconds S --trace 0|1 --bin DIR --work DIR\n       perfbench compare A B")
	os.Exit(2)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run")
	bin := fs.String("bin", "", "directory holding the spstreamd and spstream-gateway binaries")
	work := fs.String("work", "", "working directory for this run (created, then removed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *work == "" {
		return fmt.Errorf("--work is required")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(*work)

	host := fingerprint()
	var r *result
	var err error
	switch {
	case *traced == 1:
		r, err = tracedRun(*workload, *seed, *seconds, *work, *work+"-spans-"+*workload+".json")
	case replaySpecs[*workload].config != nil:
		r, err = replayWorkload(*workload, *seed, *seconds, *work)
	case serveSpecs[*workload] != nil:
		if *bin == "" {
			return fmt.Errorf("--bin is required for %s", *workload)
		}
		r, err = serveWorkload(*workload, *seed, *seconds, *bin, *work)
	default:
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return err
	}
	r.finish()
	names := endToEnd
	if *traced == 1 {
		names = perLayer
	}
	return emit(os.Stdout, r, host, names, *seed, *traced == 1)
}

// emit prints the human-readable metric table, the full record line
// and, last, the one-line result.
func emit(w *os.File, r *result, host hostInfo, names []string, seed uint64, traced bool) error {
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# %s seed=%d traced=%v host=%s\n", r.workload, seed, traced, host)
	for _, k := range keys {
		m := r.metrics[k]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", k, m.Value, m.Unit)
	}
	for _, o := range append(append([]outcome(nil), r.checks...), r.validOut...) {
		status := "ok"
		if !o.OK {
			status = "FAILED " + o.Err
		}
		fmt.Fprintf(w, "check %-60s %s\n", o.Name, status)
	}
	rec, err := json.Marshal(map[string]any{
		"record": r.workload, "seed": seed, "traced": traced, "host": host,
		"metrics": r.metrics, "checks": r.checks, "validity": r.validOut,
		"valid": r.correct(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(rec))

	out := map[string]metric{}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			return fmt.Errorf("%s did not measure %s", r.workload, n)
		}
		out[n] = m
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}
