// Command perfbench is BatchDB's end-to-end benchmark: three workloads
// over the TPC-C + CH-benCHmark data, each a fixed, seeded amount of
// work, with every answer checked against computations made apart from
// the replica and the query engine.
//
//	perfbench --workload tpcc|analytics|hybrid --seed N --seconds S --trace 0|1
//	perfbench --quick
//
// The last line of standard output is one JSON object: whether the
// answers were correct, how many operations were attempted and failed,
// and the metrics: end-to-end with --trace 0, per-layer with --trace 1.
// --quick runs all three workloads at a short fixed length with every
// answer check on, for smoke use. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// setupReps is how many times a run builds the system to time set-up.
const setupReps = 7

var workloads = map[string]func(options) (*outcome, error){
	"tpcc":      runTPCC,
	"analytics": runAnalytics,
	"hybrid":    runHybrid,
}

func main() {
	workload := flag.String("workload", "", "tpcc, analytics or hybrid")
	seed := flag.Int64("seed", 1, "seed for the data, the transactions and the query parameters")
	seconds := flag.Int("seconds", 40, "nominal run length: the work done is fixed per nominal second")
	trace := flag.Int("trace", 0, "1 = wrap the layer interfaces and report per-layer metrics")
	quick := flag.Bool("quick", false, "run every workload at a short fixed length with all checks on")
	workDir := flag.String("work-dir", ".bench_build/work", "directory for data dirs and span files")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	if *quick {
		os.Exit(runQuick(*seed, *workDir))
	}
	fn, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1"))
	}
	stopProfile := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
			}
		}
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, setupReps: setupReps, workDir: *workDir}
	out, err := fn(o)
	if err != nil {
		fatal(err)
	}
	printMetrics(*workload, "e2e", out.e2e)
	ms := out.e2e
	if out.tr != nil {
		printMetrics(*workload, "layer", out.layers)
		ms = out.layers
		path := filepath.Join(*workDir, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := out.tr.writeSpans(path); err != nil {
			fatal(err)
		}
		fmt.Printf("spans: %s\n", path)
	}
	phase("done")
	fmt.Printf("%s: attempted %d, failed %d\n", *workload, out.attempted, out.failed)
	fmt.Println(resultLine(out.chk.ok(), out.attempted, out.failed, ms))
	stopProfile()
	if !out.chk.ok() {
		os.Exit(1)
	}
}

// runQuick runs every workload for one nominal second with a single
// set-up, printing ops attempted and failed for each. It returns the
// exit code: non-zero if any run erred or any check failed.
func runQuick(seed int64, workDir string) int {
	ok := true
	attempted, failed := 0, 0
	for _, name := range []string{"tpcc", "analytics", "hybrid"} {
		out, err := workloads[name](options{seed: seed, seconds: 1, setupReps: 1, workDir: workDir, quick: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			ok = false
			continue
		}
		printMetrics(name, "e2e", out.e2e)
		fmt.Printf("%s: attempted %d, failed %d, checks passed %v\n", name, out.attempted, out.failed, out.chk.ok())
		ok = ok && out.chk.ok()
		attempted += out.attempted
		failed += out.failed
	}
	fmt.Println(resultLine(ok, attempted, failed, nil))
	if !ok {
		return 1
	}
	return 0
}

func printMetrics(workload, kind string, ms []metric) {
	for _, m := range ms {
		fmt.Printf("%s %s %-26s %14.4f %s\n", workload, kind, m.name, m.value, m.unit)
	}
}

// resultLine renders the final JSON line, metrics in the order given.
func resultLine(correct bool, attempted, failed int, ms []metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %v, "attempted": %d, "failed": %d, "metrics": {`, correct, attempted, failed)
	for i, m := range ms {
		if i > 0 {
			b.WriteString(", ")
		}
		name, _ := json.Marshal(m.name)
		unit, _ := json.Marshal(m.unit)
		val, err := json.Marshal(m.value)
		if err != nil {
			val = []byte("null") // NaN or Inf: not a number JSON can carry
		}
		fmt.Fprintf(&b, `%s: {"value": %s, "unit": %s}`, name, val, unit)
	}
	b.WriteString("}}")
	return b.String()
}

// started is when the process began; phase logs are relative to it.
var started = time.Now()

// phase logs the end of a stage of the run to standard error, with the
// seconds since the process started.
func phase(what string) {
	fmt.Fprintf(os.Stderr, "[%7.2fs] %s\n", time.Since(started).Seconds(), what)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
