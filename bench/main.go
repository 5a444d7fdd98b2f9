// Command bench is the repo's benchmark: four named workloads driven through
// the real composition (realnet.Router with DataListen, realnet.Session
// subscribers, loopback UDP/TCP) from one process, one sender goroutine and
// one sink goroutine. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance is printed with every result: numbers from different boxes or
// toolchains are not comparable.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Path       string `json:"path"`
}

func readProvenance() provenance {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Kernel: kernel,
		Path: "loopback, in-process router, generator shares the cores",
	}
}

func (p provenance) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s kernel %s; %s", p.NProc, p.GOMAXPROCS, p.Go, p.Kernel, p.Path)
}

// result is the last line of standard output, as the driver reads it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload once. traced selects the per-layer run, which
// also writes outDir/trace.<workload>.json.
func runOne(sp spec, seed int64, seconds float64, traced bool, outDir string) (*outcome, error) {
	if !traced {
		if sp.twoHop {
			return runCtl(sp, seed, seconds)
		}
		return runFwd(sp, seed, seconds)
	}
	var o *outcome
	var tr *tracer
	var err error
	if sp.twoHop {
		o, tr, err = traceCtl(sp, seed, seconds)
	} else {
		o, tr, err = traceFwd(sp, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	path, err := tr.write(outDir, traceFile{
		Workload: sp.name, Seed: seed, Provenance: readProvenance(), Counters: o.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	self := tr.selfTimes()
	o.note("self time by span: %s; %d spans written to %s", fmtSelf(self), len(tr.spans), path)
	return o, nil
}

// report prints an outcome for people, then — unless the run is invalid —
// the result line. It returns the process exit code.
func report(o *outcome, defs []metricDef) int {
	fmt.Printf("== %s seed %d — %s\n", o.Workload, o.Seed, readProvenance())
	for _, n := range o.Notes {
		fmt.Println("  " + n)
	}
	if len(o.Invalid) > 0 {
		for _, why := range o.Invalid {
			fmt.Println("  INVALID: " + why)
		}
		fmt.Println("  no metric is reported from an invalid run")
		return 2
	}
	res := result{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: o.Metrics[d.name], Unit: d.unit}
		fmt.Printf("  %-30s %14.4f %s\n", d.name, o.Metrics[d.name], d.unit)
	}
	fmt.Printf("  failed_ratio %d/%d\n", o.Failed, o.Attempted)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 20, "measuring time of one run of one workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	repeat := flag.Int("repeat", 1, "run the set this many times and check the runs agree within the bounds of BENCHMARK.json")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for trace.<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(64)
	}
	var run []spec
	if *workload == "all" {
		run = specs
	} else if sp, ok := specByName(*workload); ok {
		run = []spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(64)
	}
	if *repeat > 1 {
		os.Exit(repeatCheck(run, *seed, *seconds, *repeat))
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	code := 0
	for _, sp := range run {
		o, err := runOne(sp, *seed, *seconds, *trace == 1, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		code = max(code, report(o, defs))
	}
	os.Exit(code)
}

func fmtSelf(self map[string]int64) string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %.3f ms", n, float64(self[n])/1e6)
	}
	return sb.String()
}
