// Command perfbench is the repository's host-measured benchmark. One
// invocation runs one workload against the public entry points
// (bolt.Compile, bolt.Server, bolt.Fleet), checks every output, and
// prints the workload's metrics. The last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}: with
// --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 they are the per-layer ones, timed from outside
// around each call into a layer, and a Chrome trace-event span file is
// written under .bench_build/perfbench/.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-resnet --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metric definitions, and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// maxProcs caps the scheduler at the two cores the workloads were
// sized on, so figures from larger machines stay comparable.
const maxProcs = 2

// outDir holds the run's scratch files (tuning logs, span files),
// relative to the working directory — the repository root.
const outDir = ".bench_build/perfbench"

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int
	// checks lists the output checks that did not hold (empty when
	// every output was correct).
	checks []string
	// vals holds the measured metrics by name (see metrics.go).
	vals map[string]float64
	// notes are diagnostic lines printed before the result.
	notes []string
}

// notef adds a diagnostic line.
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// runConfig is the command line every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	jobs    int
}

var workloads = map[string]func(runConfig) (*report, error){
	"compile-zoo":     runZoo,
	"serve-resnet":    runServeResNet,
	"serve-mlp-fleet": runServeMLPFleet,
}

func main() {
	name := flag.String("workload", "", "workload to run: compile-zoo, serve-resnet or serve-mlp-fleet")
	seed := flag.Int64("seed", 1, "seed for arrivals, inputs and the priority mix")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("# machine cpu=%q nproc=%d gomaxprocs=%d go=%s\n", cpuModel(), runtime.NumCPU(), procs, runtime.Version())

	rep, err := run(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, jobs: procs})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	for _, c := range rep.checks {
		fmt.Println("# CHECK FAILED:", c)
	}
	list := endToEnd
	if *trace == 1 {
		list = perLayer
	}
	metrics := withUnits(list, rep.vals)
	for _, m := range list {
		v := metrics[m.name].Value
		fmt.Printf("# %-28s %14.6g %s\n", m.name, v, m.unit)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", m.name, v)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.checks) == 0 && rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// cpuModel names the host CPU, so host numbers are compared only
// against baselines from the same machine.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's high-water resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// scratchFile returns a fresh path under outDir for one run's tuning
// log, removing any leftover from an earlier run.
func scratchFile(name string) string {
	p := filepath.Join(outDir, fmt.Sprintf("%s-%d.json", name, os.Getpid()))
	os.Remove(p)
	return p
}
