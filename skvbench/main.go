// Command skvbench is the repository benchmark. It runs one named workload
// per process, checks the outputs for correctness, and prints every metric
// by name with its unit; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	bash skvbench/run.sh --workload paper-set --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with --trace 1 a CPU profile is taken over set-up and over
// the timed window, and the metrics are the per-layer ones ("per_layer").
// --workload all runs every workload, each in its own process.
//
// Everything is measured from outside the program, through its public
// API: the program under test carries no tracing of its own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
)

// setups is how many times each run builds its deployment anew;
// setup_s is the median, and the last one is measured.
const setups = 3

// outDir holds profiles and full per-run records, inside the checkout.
const outDir = ".bench_build/results"

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(seed int64, seconds int, trace bool) (*outcome, error)
}

var workloads = []workload{
	{"paper-set", func(seed int64, seconds int, trace bool) (*outcome, error) {
		return runSim(paperSet, seed, paperSet.window(seconds), trace)
	}},
	{"scaleout-read-tracked", func(seed int64, seconds int, trace bool) (*outcome, error) {
		return runSim(scaleoutRead, seed, scaleoutRead.window(seconds), trace)
	}},
	{"tcp-loopback", func(seed int64, seconds int, trace bool) (*outcome, error) {
		return runTCP(tcpLoopback, seed, seconds, trace)
	}},
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the numbers a user of the system sees.
var endToEnd = []metricDef{
	{"kops", "kops/s"},
	{"p50_us", "us"},
	{"p95_us", "us"},
	{"wall_kops", "kops/s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are single-layer numbers from the traced run.
var perLayer = []metricDef{
	{"client.error_rate", "ratio"},
	{"client.latency_samples", "count"},
	{"latency.p99_us", "us"},
	{"sim.events_per_op", "count"},
	{"sim.wall_ns_per_event", "ns"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles", "count"},
	{"rdma.wrs_per_op", "count"},
	{"rdma.cq_wakeups_per_completion", "ratio"},
	{"fabric.msgs_per_op", "count"},
	{"fabric.bytes_per_op", "B"},
	{"fabric.dropped", "count"},
	{"fabric.retransmits", "count"},
	{"server.master_util", "ratio"},
	{"server.shard_util_max", "ratio"},
	{"server.route_util_max", "ratio"},
	{"server.set_service_us", "us"},
	{"server.get_service_us", "us"},
	{"server.shard.barriers", "count"},
	{"repl.cmds_per_flush", "count"},
	{"repl.bytes_per_write", "B"},
	{"hostkv.repl_reqs_per_write", "count"},
	{"nickv.stream_frames_per_write", "count"},
	{"nic.util", "ratio"},
	{"client.hit_rate", "ratio"},
	{"client.invalidations_per_write", "count"},
	{"nickv.track.invalidations", "count"},
	{"slots.moved", "count"},
	{"slots.group_imbalance", "ratio"},
	{"resp.parse_ns_per_cmd", "ns"},
	{"store.exec_ns_per_op", "ns"},
	{"netserver.residual_ns_per_op", "ns"},
	{"span.build_s", "s"},
	{"span.preload_s", "s"},
	{"span.sync_s", "s"},
	{"span.warmup_s", "s"},
	{"span.check_s", "s"},
	{"trace.overhead_pct", "%"},
	{"cpu.sim", "share"},
	{"cpu.gc", "share"},
	{"cpu.malloc", "share"},
	{"cpu.rdma", "share"},
	{"cpu.rconn", "share"},
	{"cpu.fabric", "share"},
	{"cpu.server", "share"},
	{"cpu.core", "share"},
	{"cpu.replstream", "share"},
	{"cpu.tracking", "share"},
	{"cpu.workload", "share"},
	{"cpu.store", "share"},
	{"cpu.dict", "share"},
	{"cpu.obj", "share"},
	{"cpu.resp", "share"},
	{"cpu.netserver", "share"},
	{"cpu.syscall", "share"},
	{"cpu.runtime", "share"},
	{"cpu.bench", "share"},
	{"cpu.other", "share"},
	{"cpu.rdb", "share"},
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed uint64
	// gate is nil when every correctness check passed.
	gate error
	// values holds every metric the run produced, by name.
	values map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

// metricJSON is one entry of the result's "metrics" object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// environment is stored with every result, so numbers from different
// machines are never compared as if they were alike.
func environment() map[string]string {
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"network":    "loopback, not a real link (tcp-loopback); sim workloads model a 100Gb fabric in virtual time",
	}
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window in wall seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "skvbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "skvbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "skvbench: %v\n", err)
		os.Exit(1)
	}
	out, err := w.run(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skvbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out.set("max_rss_mb", maxRSSMB())
	os.Exit(report(w.name, *seed, *trace, out))
}

// report prints the run's metrics and the result line, records them under
// outDir, and returns the exit code.
func report(name string, seed int64, trace int, out *outcome) int {
	env := environment()
	fmt.Printf("workload %s seed %d trace %d\n", name, seed, trace)
	for _, k := range sortedKeys(env) {
		fmt.Printf("env %s: %s\n", k, env[k])
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   out.gate == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	if out.gate != nil {
		fmt.Printf("correctness gate FAILED: %v\n", out.gate)
	} else {
		for _, d := range defs {
			v, ok := out.values[d.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "skvbench: %s produced no %s\n", name, d.name)
				return 1
			}
			res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
			fmt.Printf("%-34s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skvbench: %v\n", err)
		return 1
	}
	record, err := json.MarshalIndent(map[string]any{
		"workload": name, "seed": seed, "trace": trace, "env": env,
		"correct": res.Correct, "attempted": out.attempted, "failed": out.failed,
		"values": out.values, "notes": out.notes,
	}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace)), record, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "skvbench: recording result: %v\n", err)
	}
	fmt.Println(string(line))
	if out.gate != nil {
		return 1
	}
	return 0
}

// runAll runs every workload, untraced then traced, each in its own
// process (max_rss_mb is per process), and returns the exit code.
func runAll(seed int64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "skvbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", trace)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "skvbench: %s trace %s: %v\n", w.name, trace, err)
				code = 1
			}
		}
	}
	return code
}

// maxRSSMB reports the process's peak resident set size (getrusage
// ru_maxrss, in KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
