// Command perfbench is the repository's benchmark. It runs one workload
// against the code of this checkout, checks that the outputs are correct,
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. Run it through run.sh, which builds it and the dmfserve binary
// the serve workload drives:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//	serve   a dmfserve trainer and follower as real processes; an open loop
//	        and a closed loop of /predict and /rank requests at the follower
//	ingest  durable ingest at full rate, each increment gossiped to a follower
//	train   offline sharded epochs on the parallel epoch scheduler
//
// Every workload reports the same end-to-end metrics, each read as what a
// user of that path sees: p50_ms and tail_ms (the p90) are the request
// latency (serve), the measurement freshness (ingest) or the epoch time
// (train), and throughput is requests, measurements or updates per
// second. Each is read from the quieter windows of the run (quietQ); the
// p99s and sample counts are printed by name above the result line.
//
// With -trace 1 the run measures the workload twice: once untraced, then
// once with spans recorded around each call the benchmark makes into a
// layer. It prints per-layer metrics, self times, one residual line per
// attributed end-to-end figure and the tracing overhead, and writes the
// spans to the work directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput", "1/s"},
	{"auc", "ratio"},
}

// perLayer lists the metrics a traced run reports. A workload reports 0
// for the layers it does not cross.
var perLayer = []metricDef{
	{"serve.http_server_us.predict", "us"},
	{"serve.http_server_us.batch", "us"},
	{"serve.http_server_us.rank", "us"},
	{"serve.client_residual_us.predict", "us"},
	{"serve.client_residual_us.batch", "us"},
	{"serve.client_residual_us.rank", "us"},
	{"serve.loadgen_late_p99_us", "us"},
	{"serve.snapshot_ns.predict", "ns"},
	{"serve.snapshot_ns.batch", "ns"},
	{"serve.snapshot_ns.rank", "ns"},
	{"serve.follower_deltas", "count"},
	{"serve.residual_us.predict", "us"},
	{"serve.residual_us.batch", "us"},
	{"serve.residual_us.rank", "us"},
	{"ingest.source_ns", "ns"},
	{"ingest.run_self_ns", "ns"},
	{"ingest.wal_append_ns", "ns"},
	{"ingest.snapshot_ms", "ms"},
	{"ingest.replica_update_ms", "ms"},
	{"ingest.ckpt_save_ms.p50", "ms"},
	{"ingest.ckpt_save_ms.max", "ms"},
	{"ingest.ckpt_bytes.base", "bytes"},
	{"ingest.ckpt_bytes.delta", "bytes"},
	{"ingest.gossip_wait_ms", "ms"},
	{"ingest.gossip_transfer_ms", "ms"},
	{"ingest.gossip_bytes", "bytes"},
	{"ingest.follower_publish_us", "us"},
	{"ingest.gc_pause_ms", "ms"},
	{"ingest.fresh_residual_ms", "ms"},
	{"train.gc_pause_ms", "ms"},
	{"train.epoch_ms.p50", "ms"},
	{"train.epoch_ms.p90", "ms"},
	{"train.allocs_per_epoch", "count"},
	{"setup.dataset_s", "s"},
	{"setup.budget_train_s", "s"},
	{"setup.bootstrap_s", "s"},
	{"setup.trainer_ready_s", "s"},
	{"setup.follower_ready_s", "s"},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dmfserve string // dmfserve binary (serve workload)
	workdir  string // scratch space: WAL, checkpoints, logs, spans
	toy      bool   // tiny sizes, for the package's own tests
}

// report collects one run's results.
type report struct {
	attempted, failed int64
	e2e               map[string]float64 // untraced end-to-end metrics
	tracedE2E         map[string]float64 // the same, measured with tracing on
	layers            map[string]float64
	checks            []check
	lines             []string
}

// check is one correctness check.
type check struct {
	name   string
	ok     bool
	detail string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, tracedE2E: map[string]float64{}, layers: map[string]float64{}}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// correct reports whether every check passed and no operation failed.
func (r *report) correct() bool {
	if r.failed > 0 || len(r.checks) == 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// workloads maps a workload name to its measurement. A workload measures
// untraced into rep.e2e; with cfg.trace it measures again with spans on
// into rep.tracedE2E and rep.layers.
var workloads = map[string]func(ctx context.Context, cfg config, rep *report) error{
	"serve":  runServe,
	"ingest": runIngest,
	"train":  runTrain,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve, ingest or train")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.dmfserve, "dmfserve", "", "dmfserve binary the serve workload starts")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	if err := validate(cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rep := newReport()
	err := run(ctx, cfg, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	out, jerr := resultJSON(cfg, rep)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.correct() {
		os.Exit(1)
	}
}

func validate(cfg config, trace int) error {
	if _, ok := workloads[cfg.workload]; !ok {
		return fmt.Errorf("unknown -workload %q (want serve, ingest or train)", cfg.workload)
	}
	if cfg.seconds < 1 || cfg.seconds > 60 {
		return fmt.Errorf("-seconds %d out of [1,60]", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if cfg.workload == "serve" && cfg.dmfserve == "" {
		return fmt.Errorf("the serve workload needs -dmfserve")
	}
	return nil
}

// run measures the workload into rep and appends the provenance, the
// check results and the metric lines.
func run(ctx context.Context, cfg config, rep *report) error {
	dir, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.workdir = dir
	rep.printf("provenance: %s", provenance(cfg))
	steal0 := cpuSteal()
	if err := workloads[cfg.workload](ctx, cfg, rep); err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.printf("host: %.2f s of CPU steal during the run (time the hypervisor gave this machine's CPUs to others)", cpuSteal()-steal0)
	var bad []string
	for _, m := range endToEnd {
		if v := rep.e2e[m.name]; v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, m.name)
			rep.e2e[m.name] = 0
		}
	}
	for _, m := range perLayer {
		if v := rep.layers[m.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, m.name)
			rep.layers[m.name] = 0
		}
	}
	rep.check("metrics_measured", len(bad) == 0, "every end-to-end metric non-zero and finite, every layer metric finite; not: %v", bad)
	for _, c := range rep.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		rep.printf("check %-24s %s: %s", c.name, status, c.detail)
	}
	rep.printf("operations: %d attempted, %d failed", rep.attempted, rep.failed)
	for _, m := range endToEnd {
		rep.printf("e2e %-12s %.6g %s", m.name, rep.e2e[m.name], m.unit)
	}
	if cfg.trace {
		for _, m := range endToEnd {
			u, t := rep.e2e[m.name], rep.tracedE2E[m.name]
			rep.printf("tracing overhead %-12s traced %.6g − untraced %.6g = %+.4g %s", m.name, t, u, t-u, m.unit)
		}
		for _, m := range perLayer {
			rep.printf("layer %-36s %.6g %s", m.name, rep.layers[m.name], m.unit)
		}
	}
	return nil
}

// resultJSON renders the final line: end-to-end metrics untraced, per-layer
// metrics traced.
func resultJSON(cfg config, rep *report) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, src := endToEnd, rep.e2e
	if cfg.trace {
		defs, src = perLayer, rep.layers
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.name] = value{src[m.name], m.unit}
	}
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1 // nothing ran: report one attempt, which correct=false marks as failed
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), attempted, rep.failed, metrics})
}

// provenance describes where the numbers come from.
func provenance(cfg config) string {
	p := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"workdir_fs": fsType(cfg.workdir),
		"network":    "loopback (127.0.0.1); no real link is crossed",
		"datasets":   datasetSizes(cfg),
	}
	b, _ := json.Marshal(p) // a map of plain values always encodes
	return string(b)
}

// datasetSizes describes the datasets a run builds, for the provenance line.
func datasetSizes(cfg config) string {
	switch cfg.workload {
	case "serve":
		p := serveSizes(cfg)
		return fmt.Sprintf("Meridian-like RTT, %d nodes, %d shards (in dmfserve)", p.nodes, p.shards)
	case "ingest":
		p := ingestSizes(cfg)
		return fmt.Sprintf("Meridian-like RTT, %d nodes, %d shards, %d refresh iterations", p.nodes, p.shards, p.iters)
	default:
		p := trainSizes(cfg)
		return fmt.Sprintf("HP-S3-like ABW, %d nodes, %d shards, %d epochs", p.nodes, p.shards, p.epochs)
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSteal returns the host's cumulative CPU steal time in seconds, from
// the aggregate line of /proc/stat (in USER_HZ, 100 per second); 0 when
// unreadable.
func cpuSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / 100
}

// fsType names the filesystem holding dir: the type of the longest mount
// point that prefixes it.
func fsType(dir string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, l := range strings.Split(string(b), "\n") {
		f := strings.Fields(l)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// errOK renders a nil error as "ok".
func errOK(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// writeTrace saves the spans next to the run's scratch directory.
func writeTrace(cfg config, tr *tracer, rep *report) error {
	path := filepath.Join(filepath.Dir(cfg.workdir), fmt.Sprintf("trace-%s-seed%d.ndjson", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.printf("spans: %s", path)
	return nil
}
