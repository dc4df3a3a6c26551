// Command perfbench is sfccover's end-to-end, layer-attributed benchmark.
// It drives three workloads through the public entry points of the
// broker overlay, the sfcd daemon and client, the sharded engine and the
// durable store, checks every workload's outputs, and prints the
// end-to-end metrics (untraced run) or the per-layer split (traced run).
//
//	perfbench --workload query-wire --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are the
// human-readable report: the host, the workload's settings, every
// metric with its unit and, on traced runs, the span summary. The exit
// code is 0 only when every output check passed. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, in BENCHMARK.json's
// order. Two figures a user sees are kept out because they read 0 where
// they do not apply, and a bound on a zero median means nothing:
// failed_frac is carried by the result's attempted/failed pair and the
// text report, and forwards_per_op, which only the overlay has, is the
// per-layer broker.forwards_per_op and a line of overlay-churn's text
// report.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"hit_frac", "ratio"},
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
}

// perLayer are the metrics a traced run reports, grouped by module.
var perLayer = []metricDef{
	{"sfcd.client_rtt_p50_us", "us"},
	{"sfcd.server_op_us", "us"},
	{"sfcd.wire_self_us", "us"},
	{"sfcd.rpcs_per_op", "count"},
	{"sfcd.write_op_us", "us"},
	{"subscription.encode_ns", "ns"},
	{"subscription.decode_ns", "ns"},
	{"engine.batch_p50_us", "us"},
	{"engine.query_us", "us"},
	{"engine.write_us", "us"},
	{"dominance.cubes_per_query", "count"},
	{"dominance.runs_probed_per_query", "count"},
	{"dominance.cache_hit_frac", "ratio"},
	{"dominance.decompose_us", "us"},
	{"dominance.probe_us", "us"},
	{"persist.wal_records_per_op", "count"},
	{"persist.wal_bytes_per_op", "B"},
	{"broker.subscribe_p50_us", "us"},
	{"broker.unsubscribe_p50_us", "us"},
	{"broker.publish_p50_us", "us"},
	{"broker.forwards_per_op", "count"},
	{"broker.cover_queries_per_op", "count"},
	{"broker.suppressed_per_op", "count"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.gc_per_kop", "count"},
	{"trace.traced_ops_s", "1/s"},
	{"trace.untraced_ops_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// outDir receives the temporary WAL data dirs, the span files of
	// traced runs and a JSON copy of every result.
	outDir string
	size   sizes
	// out receives the human-readable report.
	out io.Writer
}

// logf writes one report line.
func (c *config) logf(format string, args ...any) {
	fmt.Fprintf(c.out, format+"\n", args...)
}

// outcome is what a workload run hands back to the reporter.
type outcome struct {
	attempted, failed int64
	// checkErr is the first failed output check; nil when every check
	// passed.
	checkErr error
	// e2e holds the end-to-end metrics (untraced runs), layers the
	// per-layer metrics (traced runs).
	e2e    map[string]float64
	layers map[string]float64
}

// workloadFunc runs one workload. An error means the benchmark could not
// run at all (no result is printed); failed output checks are reported
// through outcome.checkErr instead.
type workloadFunc func(cfg *config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"query-wire":    runQueryWire,
	"query-local":   runQueryLocal,
	"overlay-churn": runOverlayChurn,
}

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg := &config{out: os.Stdout}
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: query-wire, query-local or overlay-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured phase, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out-dir", ".bench_build", "directory for data dirs, span files and result copies")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %v", seconds))
	}
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fail(fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", ")))
	}
	cfg.size = fullSizes()
	res, err := run(cfg)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and assembles its result: the report lines
// go to cfg.out, a JSON copy of the result and host record goes under
// cfg.outDir, and the returned result is what main prints last.
func run(cfg *config) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating output dir: %w", err)
	}
	h := hostInfo(cfg.outDir)
	cfg.logf("perfbench: workload=%s seed=%d seconds=%g trace=%v", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	cfg.logf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s datadir_fs=%s", h.NProc, h.GOMAXPROCS, h.CPU, h.GoVersion, h.DataDirFS)

	oc, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	defs, values := endToEnd, oc.e2e
	if cfg.trace {
		defs, values = perLayer, oc.layers
	}
	res := &result{
		Correct:   oc.checkErr == nil && oc.failed == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		cfg.logf("metric %-34s %14.6g %s", d.name, v, d.unit)
	}
	cfg.logf("ops attempted=%d failed=%d failed_frac=%g", oc.attempted, oc.failed, ratio(float64(oc.failed), float64(oc.attempted)))
	switch {
	case oc.checkErr != nil:
		cfg.logf("check: FAILED: %v", oc.checkErr)
	case oc.failed > 0:
		cfg.logf("check: FAILED: %d of %d ops failed", oc.failed, oc.attempted)
	default:
		cfg.logf("check: ok")
	}
	if res.Attempted < 1 {
		return nil, errors.New("no op completed")
	}
	record := struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Seconds  float64 `json:"seconds"`
		Trace    bool    `json:"trace"`
		Host     host    `json:"host"`
		Result   *result `json:"result"`
	}{cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, h, res}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	if err := os.WriteFile(filepath.Join(cfg.outDir, name), data, 0o644); err != nil {
		return nil, fmt.Errorf("writing result copy: %w", err)
	}
	return res, nil
}

// host records where a result was measured: absolute times do not
// travel between machines.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	DataDirFS  string `json:"data_dir_fs"`
}

func hostInfo(dataDir string) host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		DataDirFS:  fsType(dataDir),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
